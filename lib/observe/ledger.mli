(** The durable run ledger: one versioned manifest per detection run.

    This module owns the schema — entry record, flat-field encoding,
    version gate, digests and the timing/identity field classification.
    File I/O and run-to-run comparison live in [Pm_corpus.Ledger_store]
    (lib/corpus depends on lib/observe, not the other way around). *)

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
  e_mode : string;  (** mc | mc-recovery | random | bench *)
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
    gate exists to catch), [`Lower] is better (timing), [`Neutral]
    means any delta is a change worth flagging. *)
val direction : string -> [ `Higher | `Lower | `Neutral ]

(** Flat, order-stable field list — the shape {!Yashme_util.Json} encodes
    verbatim as one JSONL line.  Cost centers appear as
    [cc:<center>:count] / [cc:<center>:units] / [cc:<center>:wall_us]
    triples, sorted by center. *)
val fields : entry -> (string * Yashme_util.Json.value) list

(** Inverse of {!fields}.  Errors on missing/mistyped fields and on a
    version outside [1..{!version}].  [of_fields (fields e) = Ok e]. *)
val of_fields : (string * Yashme_util.Json.value) list -> (entry, string) result

(** Every numeric field (timing included; identity excluded), in
    {!fields} order — the comparison substrate. *)
val numeric_fields : entry -> (string * float) list

(** Configuration/digest strings two comparable runs must agree on;
    [run] is identity and excluded. *)
val string_fields : entry -> (string * string) list

(** Fold an {!Attribution.diff} into cost records. *)
val costs_of_rows : Attribution.row list -> cost list
