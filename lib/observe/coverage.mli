(** The coverage view of the registry: crash-space coverage per
    (program, variant) bucket.

    Answers, per program, how much of the crash space a run actually
    explored: crash-plan indices exercised, crash points that actually
    fired, detector prefix expansions vs pruned checks (coherence /
    persisted), and distinct cache lines materialized by crashes.

    Each quantity is a per-program registry cell ({!Metrics}) that the
    engine, the machine and the detector fill inside
    {!Metrics.with_program}: the tally [coverage/scenarios], the sets
    [coverage/plan_indices], [coverage/crash_points] and
    [coverage/lines], and the counts of [detector/prefix_expansions],
    [detector/pruned_coherence], [detector/pruned_persisted],
    [oracle/observe] and [oracle/violations].  Every one is a set union
    or a counter sum and each scenario executes exactly once regardless
    of the pool size, so the rows (and everything rendered from them)
    are byte-identical for every [--jobs] count. *)

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

(** One row per program bucket, sorted by program then variant label. *)
val snapshot : unit -> stats list

(** The current row of one program (variant default
    {!Metrics.default_variant}). *)
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
