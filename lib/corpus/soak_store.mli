(** Persistence for the soak service ({!Pm_harness.Soak}): the
    deduplicating witness sink fed by [on_batch], the versioned run
    manifest that makes a soak run a durable, resumable artifact, and
    the session ({!serve}) that runs the soak loop with both.

    A checkpoint is two files, both written crash-safely
    ({!Yashme_util.Atomic_file}): the witness corpus (ordinary
    {!Corpus} JSONL, only written once non-empty) and the manifest —
    one {!Json} line carrying the run's configuration (seed, budgets,
    variant, streams), the driver {!Pm_harness.Soak.snapshot}
    (per-combo fault/quarantine state flattened to [bucket:*] fields),
    sink counters, a coverage digest and the [soak_ok] marker.  Since
    soak scenarios are pure functions of (seed, round, combo), the
    manifest plus the corpus is everything resume needs: no RNG state,
    no scenario queue. *)

module Soak = Pm_harness.Soak

(** {1 Witness sink}

    Cross-round first-occurrence dedup by {!Witness.identity} — the
    corpus-level rule — so checkpoints re-save a stable, growing
    witness list. *)

type sink

val sink : unit -> sink

(** Absorb one soak round's [(program_name, scenario, result)] triples
    (the {!Pm_harness.Soak.run} [on_batch] feed), extracting witnesses
    with {!Witness.of_pairs} against the sink's identities, so a
    re-observation renders no summary. *)
val absorb : sink -> (string * Pm_harness.Scenario.t * Pm_harness.Engine.scenario_result) list -> unit

(** Witnesses in first-observation order. *)
val witnesses : sink -> Witness.t list

val raw : sink -> int  (** candidate observations walked *)

val duplicates : sink -> int  (** observations folded by dedup *)

(** {1 Run manifest} *)

val version : int

type manifest = {
  m_run : string;  (** run label *)
  m_streams : string list;  (** soaked stream names, config order *)
  m_seed : int;
  m_variant : string;  (** persistency-model variant label *)
  m_jobs : int;
  m_ops_per_exec : int;
  m_fault_budget : int;
  m_max_ops : int option;
  m_wall_s : float option;
  m_checkpoint_every : int;
  m_corpus : string;  (** checkpoint corpus path ("" when none) *)
  m_snapshot : Soak.snapshot;
  m_witnesses : int;  (** sink witness count (0 = no corpus written) *)
  m_raw : int;
  m_duplicates : int;
  m_coverage_digest : string;
      (** {!Telemetry.coverage_digest} of this invocation: coverage is
          not persisted, so a resumed run's digest covers only the
          rounds it ran itself *)
  m_soak_ok : bool;  (** true iff the run ended by budget *)
  m_stopped : string;
      (** {!Soak.stop_reason_label} of the final stop, or ["running"]
          for an intermediate checkpoint *)
  m_ts : float;  (** wall-clock stamp (timing; excluded from identity) *)
  m_elapsed_s : float;  (** invocation wall time (timing) *)
}

(** One deterministic JSON line (no trailing newline); equal manifests
    encode to equal bytes, which [yashme trace-lint] accepts. *)
val encode : manifest -> string

(** Decode one manifest line: loud on malformed JSON, missing fields,
    a [manifest_version] outside [1..{!version}], or a configuration a
    resume cannot run (no stream, [ops_per_exec] or [fault_budget]
    below 1). *)
val decode : string -> (manifest, string) result

(** The fields two runs of the same seed must agree on: everything
    except the timing stamps ([ts], [elapsed_s]).  Byte-compare the
    encodings of two identity projections to check reproducibility. *)
val identity_fields : manifest -> (string * Json.value) list

(** Write [path] crash-safely (tmp + atomic rename). *)
val save : string -> manifest -> unit

(** Load a manifest file ({!Yashme_util.Json.load_lines}; the first
    line is the manifest): empty, unreadable or malformed files are
    positioned [Error]s (["PATH:N: ..."]), never exceptions. *)
val load : string -> (manifest, string) result

(** {1 Session} *)

(** Where a resumed run starts. *)
type resume = {
  rs_path : string;  (** the manifest file *)
  rs_manifest : manifest;
  rs_config : Soak.config;
      (** streams, seed, variant, jobs, budgets and checkpoint period
          from the manifest; default buckets, oracle off *)
  rs_witnesses : Witness.t list;
      (** the checkpoint corpus, loaded only when the manifest
          recorded witnesses and names a corpus *)
}

(** Read a manifest for resuming; [find_stream] resolves stream names.
    A manifest or corpus that will not load, an unknown stream or an
    unknown variant is an [Error] naming the file, never an
    exception. *)
val resume :
  find_stream:(string -> Soak.op_stream option) -> string -> (resume, string) result

(** One soak session: {!Soak.run} over [cfg], every round absorbed into
    a fresh sink, under a SIGINT handler that calls
    {!Soak.request_stop} (the previous handler is restored on every
    exit); [stop_after] requests the same stop after that many rounds
    of this invocation.  Every [sk_checkpoint_every] rounds, and when
    the loop stops, it writes the sink's witnesses to [corpus] (once
    there are any), then the manifest (labelled [run]) to [manifest].
    With [resume], the loop continues from the manifest's snapshot and
    the sink from its witnesses, [raw] and [duplicates]. *)
val serve :
  ?resume:resume ->
  ?stop_after:int ->
  run:string ->
  corpus:string option ->
  manifest:string option ->
  Soak.config ->
  Soak.result * sink
