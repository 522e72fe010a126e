(** Aggregated findings for one program: persistency races plus
    recovery-failure witnesses.

    Raw race reports are deduplicated by source-level field label — the
    granularity of the paper's Tables 3 and 4 (one row per field).
    Benign (checksum-validated) findings are kept but flagged, matching
    section 7.5.

    Scenario faults captured by the engine ride along: recovery-phase
    faults on a real crash image ({!Finding.is_recovery_failure}) are
    first-class findings — WITCHER-style crash-consistency evidence —
    deduplicated by {!Finding.recovery_failure_key} and rendered with
    the crash plan and seed that reproduce them; all other faults and
    budget divergences are counted and summarized on a [contained]
    line.  Faults must be supplied in submission order so the exemplar
    choice (and thus the report) is byte-identical across [--jobs]
    counts. *)

type finding = {
  label : string;
  benign : bool;
  count : int;  (** raw reports collapsed into this finding *)
  example : Yashme.Race.t;
}

type recovery_failure = {
  rf_key : string;  (** {!Finding.recovery_failure_key} *)
  rf_example : Finding.fault;  (** first observation, submission order *)
  rf_count : int;  (** raw faults collapsed into this finding *)
}

type consistency_violation = {
  cv_key : string;  (** the oracle's plan-free violation key *)
  cv_example : Finding.consistency;  (** first observation *)
  cv_count : int;  (** raw observations collapsed into this finding *)
}

type t = {
  program : string;
  variant : string;
      (** persistency-model variant label ({!Px86.Variant.label});
          rendered as a ["[variant ...]"] line only when it is not
          {!Px86.Variant.default_label}, keeping default-variant
          reports byte-identical to historical output *)
  executions : int;  (** pre/post execution pairs explored *)
  raw_races : int;
  findings : finding list;  (** sorted by label *)
  recovery_failures : recovery_failure list;  (** sorted by key *)
  consistency_violations : consistency_violation list;
      (** invariant-oracle findings, sorted by key; always empty when
          no oracle context was attached, so oracle-off reports render
          byte-identically to pre-oracle output *)
  fault_count : int;
      (** contained faults that are {e not} recovery failures (setup or
          pre-crash phase, or a recovery raising without a crash) *)
  diverged : int;  (** scenarios with a budget-terminated phase *)
  oracle : string list option;
      (** inferred invariant labels ([None] unless attached with
          {!with_oracle}).  Never rendered by {!pp}/{!to_string} —
          rendered by {!oracle_to_string}. *)
}

(** Deduplicate raw races by field label and [faults] (submission
    order) by recovery-failure key.  A label is benign only if every
    report for it is benign.  Duplicate observations are counted on
    the [report/duplicate_races] counter of the global
    {!Observe.Metrics} registry. *)
val dedup :
  program:string ->
  ?variant:string ->
  executions:int ->
  ?faults:Finding.fault list ->
  ?consistency:Finding.consistency list ->
  ?diverged:int ->
  Yashme.Race.t list ->
  t

(** Attach the oracle's inferred invariant labels
    ({!Pm_oracle.Invariant.label} of each, sorted). *)
val with_oracle : t -> string list -> t

(** Real (non-benign) findings. *)
val real : t -> finding list

val benign : t -> finding list

(** Race keys of all findings (benign included), in report order —
    the identity set the witness corpus must cover exactly. *)
val keys : t -> string list

(** Recovery-failure keys, in report order. *)
val recovery_failure_keys : t -> string list

(** Consistency-violation keys, in report order. *)
val consistency_keys : t -> string list

(** Render one recovery-failure finding (key, repro seed, count). *)
val pp_recovery_failure : Format.formatter -> recovery_failure -> unit

(** Render one consistency-violation finding (key, repro seed, count). *)
val pp_consistency_violation : Format.formatter -> consistency_violation -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Render the [\[oracle\]] block: inferred invariant set plus
    per-violation detail, byte-identical across [--jobs] counts; a
    ["(not run)"] placeholder when no oracle was attached. *)
val oracle_to_string : t -> string
