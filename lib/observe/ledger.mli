(** The durable run ledger: one versioned manifest per detection run.

    The schema (entry record, flat-field encoding, version gate, digests,
    timing/identity field classification), the file ({!Yashme_util.Json}
    lines: one per run, appended by [--ledger FILE], re-read by
    [yashme runs] / [yashme compare], linted by [yashme trace-lint]) and
    the run-to-run comparison. *)

(** Current schema version; lines carrying a newer [v] are decode
    errors, never silent misinterpretations. *)
val version : int

type cost = {
  c_center : string;
  c_count : int;
  c_units : int;
  c_wall_us : int;
}

type entry = {
  e_version : int;
  e_run : string;  (** free-form label; identity, never compared *)
  e_ts : float;  (** unix seconds at append time *)
  e_program : string;
  e_variant : string;
  e_mode : string;  (** mc | mc-recovery | random | soak *)
  e_jobs : int;
  e_seed : int;
  e_scenarios : int;
  e_completed : int;
  e_faulted : int;
  e_diverged : int;
  e_executions : int;
  e_ops : int;
  e_races : int;
  e_benign : int;
  e_raw_races : int;
  e_recovery_failures : int;
  e_witnesses : int;
  e_elapsed_s : float;
  e_cpu_s : float;
  e_metrics_digest : string;
  e_coverage_digest : string;
  e_cost : cost list;  (** sorted by center name *)
}

(** FNV-1a (64-bit) of every byte, as 16 hex characters.  A real hash:
    [Hashtbl.hash] samples a bounded prefix and would collide silently. *)
val digest_string : string -> string

(** Digest of a counter snapshot (e.g. a {!Metrics.diff}), sorted by
    name so shard interleaving cannot change it. *)
val digest_counters : (string * int) list -> string

(** Digest of a flat field list (e.g. {!Coverage.fields}), in field
    order. *)
val digest_fields : (string * Yashme_util.Json.value) list -> string

(** Wall-clock/GC-word class fields ([ts], [elapsed_s], [cpu_s],
    [cc:*:wall_us], [cc:gc/*]): excluded from regression gating. *)
val timing_field : string -> bool

(** Fields naming a run rather than describing it ([run], [v]). *)
val identity_field : string -> bool

(** Regression direction of a numeric field under comparison: [`Higher]
    is better (races, witnesses — losing one is the regression the
    gate exists to catch); [`Neutral] means any delta is a change
    worth flagging, and neither direction a regression. *)
val direction : string -> [ `Higher | `Neutral ]

(** Flat, order-stable field list — the shape {!Yashme_util.Json} encodes
    verbatim as one JSONL line.  Cost centers appear as
    [cc:<center>:count] / [cc:<center>:units] / [cc:<center>:wall_us]
    triples, sorted by center. *)
val fields : entry -> (string * Yashme_util.Json.value) list

(** Inverse of {!fields}.  Errors on missing/mistyped fields and on a
    version outside [1..{!version}].  [of_fields (fields e) = Ok e]. *)
val of_fields : (string * Yashme_util.Json.value) list -> (entry, string) result

(** Fold attribution rows into cost records. *)
val costs_of_rows : Attribution.row list -> cost list

(** {1 The ledger file} *)

(** Append one entry to [path] (created if absent), crash-safely: the
    existing entries and the new line are written to a temporary that
    atomically replaces [path], so an interrupted append never leaves
    a truncated ledger. *)
val append : string -> entry -> unit

(** Read and decode a ledger file ({!Yashme_util.Json.load_lines}).
    Never raises; errors are positioned (["PATH:N: ..."]).  An empty
    file is an error (a ledger you can list must have at least one
    run), and a line with a version newer than
    {!version} is a positioned error, never a silent
    misread. *)
val load : string -> (entry list, string) result

(** Select one run: a 1-based ordinal into the file ("2" = second
    line), or a unique [e_run] label.  Ambiguous labels and
    out-of-range ordinals are errors. *)
val find :
  entry list -> string -> (entry, string) result

(** One numeric field that differs between two runs. *)
type delta = {
  d_field : string;
  d_baseline : float;
  d_current : float;
  d_regressed : bool;
      (** a {!direction} [`Higher] field dropped *)
}

type comparison = {
  cmp_changed : delta list;
      (** non-timing numeric fields whose values differ; every one
          fails the compare, and a regressed one is flagged *)
  cmp_timing : delta list;  (** timing-class deltas: informational *)
  cmp_mismatched : (string * string * string) list;
      (** (field, baseline, current) string-field disagreements —
          comparing runs of different programs/variants/digests fails *)
  cmp_passed : bool;
      (** no non-timing numeric delta and no string mismatch *)
}

(** Compare two runs field by field.  The field set is the union of
    both sides' numeric fields (a side missing a field contributes 0,
    so a cost center present in only one run surfaces as a delta
    rather than vanishing); unknown extra fields never error. *)
val compare_runs :
  baseline:entry -> current:entry -> comparison

(** Deterministic rendering: string mismatches, changed fields with
    their relative change ([new] when the baseline is 0; regressions
    flagged), timing deltas, and a final ["ledger compare: PASS"]/[FAIL]
    line. *)
val render : a_label:string -> b_label:string -> comparison -> string
