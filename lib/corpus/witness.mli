(** Serializable race witnesses.

    The paper reports each persistency race as "the pre-crash execution
    prefix E+ combined with the post-crash execution E'" (§5.1); a
    witness is the durable form of that pair: everything needed to
    rebuild the failure scenario that exhibited a finding — program
    name, crash plan(s), full {!Pm_harness.Scenario.options} (detector
    mode, seed, policies, budgets) — plus the finding's stable identity
    key and a human-readable exemplar.

    One witness is one single-line JSON object (see {!Json}); a corpus
    is a JSONL file of them.  The format is versioned ({!version});
    decoding rejects other versions loudly rather than misreading
    them.

    Witness extraction ({!of_pairs}) walks an exploration's
    submission-ordered scenario/result pairs and emits one witness per
    {e first} observation of each identity key — the same
    exemplar-selection rule {!Pm_harness.Report.dedup} uses, so the
    emitted corpus is byte-identical across [--jobs] counts and its key
    set equals the report's. *)

module Executor = Pm_runtime.Executor
module Scenario = Pm_harness.Scenario
module Engine = Pm_harness.Engine
module Runner = Pm_harness.Runner

(** Format version written to every line.  Decoding accepts
    1..[version]: v1 predates the persistency-model
    variant field (such witnesses load with the strict-tso default),
    v2 predates the consistency-violation kind — both still decode
    because v3 changed only the [kind] vocabulary, not the line
    shape. *)
val version : int

type kind =
  | Race  (** key = {!Yashme.Race.dedup_key} of the racing store *)
  | Recovery_failure
      (** key = {!Pm_harness.Finding.recovery_failure_key} *)
  | Consistency_violation
      (** key = {!Pm_harness.Finding.consistency_key} — an
          invariant-oracle finding; its scenario only reproduces with
          the oracle context re-attached (see {!scenario_of}) *)

val kind_label : kind -> string

type t = {
  kind : kind;
  program : string;  (** registry name — the replay lookup handle *)
  key : string;  (** stable identity of the finding *)
  plan : Executor.plan;  (** pre-crash plan of the witnessing scenario *)
  post_plan : Executor.plan;  (** first-recovery plan (two-crash chains) *)
  options : Scenario.options;  (** full options, seed included *)
  summary : string;  (** rendered exemplar (display only) *)
}

(** Corpus-level identity: kind + program + key.  Two witnesses with
    equal identity describe the same finding; merge keeps the first. *)
val identity : t -> string

(** One JSON line (no trailing newline).  Deterministic: equal
    witnesses encode to equal bytes. *)
val encode : t -> string

(** Decode one line; [Error] on malformed JSON, unknown fields of the
    wrong type, or a version mismatch. *)
val decode : string -> (t, string) result

(** Rebuild the witness's failure scenario.  Runs the program's setup
    materialization, so a raising setup is reported as [Error], not an
    exception.  For a {!Consistency_violation} witness the oracle
    context is rebuilt from the program's observe hook via
    {!Pm_harness.Runner.prepare_oracle} under the witness's options
    (the context holds closures and is never serialized); a program
    without an observe hook is an [Error]. *)
val scenario_of :
  lookup:(string -> Pm_harness.Program.t option) ->
  t ->
  (Scenario.t, string) result

type extraction = {
  witnesses : t list;  (** first-observation order *)
  raw : int;  (** candidate observations walked *)
  duplicates : int;  (** observations folded into an existing witness *)
}

(** Extract witnesses from a driver {!Pm_harness.Runner.outcome}'s
    pairs.  [Full] pairs contribute race observations (and, for faulted
    scenarios, the recovery-failure fault); [Faults_only] pairs
    contribute only the fault — mirroring exactly what the report
    kept.

    [seen] holds the {!identity} of every witness already emitted
    (default: none); an observation with one of them counts as a
    duplicate, and each new identity is added.  A summary is rendered
    only for a new identity. *)
val of_pairs :
  ?seen:(string, unit) Hashtbl.t ->
  program:string ->
  (Scenario.t * Engine.scenario_result * Runner.evidence) list ->
  extraction

(** {!of_pairs} over a whole {!Pm_harness.Runner.outcome}. *)
val of_outcome : program:string -> Runner.outcome -> extraction
