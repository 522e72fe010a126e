(** Crash-space coverage accounting.

    Answers, per program, how much of the crash space a run actually
    explored: crash-plan indices exercised, crash points that actually
    fired, detector prefix expansions vs pruned checks (coherence /
    persisted), and distinct cache lines materialized by crashes.

    Hooks attribute to the {e ambient program} of the calling domain —
    set by the engine around each scenario with {!with_program} — and
    accumulate into per-domain shards merged on read.  Every quantity
    is a set union or a counter sum and each scenario executes exactly
    once regardless of the pool size, so {!snapshot} (and everything
    rendered from it) is byte-identical for every [--jobs] count.
    Hooks fired with no ambient program (setup memoization, flush-point
    probes) are dropped, keeping the totals scenario-attributed.

    Disabled by default: each hook is a no-op behind a single
    [Atomic.get] branch, and nothing here influences the exploration
    being measured. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Drop all recorded coverage (the shards are kept). *)
val reset : unit -> unit

(** The variant label assumed when none is supplied; matches
    [Px86.Variant.default_label] by convention (this module stays free
    of px86 types). *)
val default_variant : string

(** [with_program p f] runs [f] with [p] as the calling domain's
    ambient program, restoring the previous ambient on exit (also on
    exceptions).  [variant] attributes the work to a persistency-model
    variant (default {!default_variant}); coverage accumulates per
    (program, variant) pair. *)
val with_program : ?variant:string -> string -> (unit -> 'a) -> 'a

(** {2 Accounting hooks} — no-ops when disabled or outside
    {!with_program}. *)

(** One scenario began executing. *)
val scenario_started : unit -> unit

(** A crash-plan index was scheduled ([-1] is crash-at-end). *)
val plan_exercised : int -> unit

(** The crash of plan index [i] actually fired. *)
val crash_point : int -> unit

(** The detector expanded a consistent prefix (cvpre join). *)
val prefix_expanded : unit -> unit

(** The detector pruned a candidate check. *)
val pruned : [ `Coherence | `Persisted ] -> unit

(** A crash materialization persisted cache line [line]. *)
val line_materialized : int -> unit

(** The invariant oracle checked one post-crash-recovery observation. *)
val oracle_checked : unit -> unit

(** The oracle reported one consistency violation. *)
val oracle_violation : unit -> unit

(** {2 Merge-on-read snapshots} *)

type stats = {
  program : string;
  variant : string;  (** persistency-model variant label *)
  scenarios : int;
  plan_indices : int list;  (** sorted; [-1] = crash-at-end *)
  crash_points : int list;  (** sorted; indices whose crash fired *)
  prefix_expansions : int;
  pruned_coherence : int;
  pruned_persisted : int;
  lines_materialized : int;  (** distinct cache lines *)
  oracle_checks : int;  (** oracle observe phases run *)
  oracle_violations : int;
}

(** Merged per-(program, variant) coverage, sorted by program then
    variant label. *)
val snapshot : unit -> stats list

val find : ?variant:string -> string -> stats option

(** Compact range rendering of a sorted index set (e.g. ["0-9,12,end"];
    [-1] renders as ["end"], the empty set as ["-"]). *)
val indices_label : int list -> string

(** Flat, order-stable field list — the shape {!Yashme_util.Json}
    encodes verbatim as one JSON object per program. *)
val fields : stats -> (string * Yashme_util.Json.value) list

(** The [\[coverage\]] block rendered under a report. *)
val pp : Format.formatter -> stats -> unit

val to_string : stats -> string
