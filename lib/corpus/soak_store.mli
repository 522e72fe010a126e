(** Persistence for the soak service ({!Pm_harness.Soak}): the
    deduplicating witness sink fed by [on_batch], and the versioned
    run manifest that makes a soak run a durable, resumable artifact.

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

(** Seed the sink with a loaded checkpoint corpus (resume): the
    witnesses keep their order and their identities suppress
    re-observations in later rounds. *)
val preload : sink -> Witness.t list -> unit

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
