(** One run's telemetry, from start to finish.

    [check], [check-all], [soak] and [scaling] each run inside one
    {!with_session}, configured by the CLI's telemetry flags.  Runs are
    observed through a window ({!observing}); the blocks, JSONL files
    and ledger entries are built from that observation, never from the
    report, so reports are byte-identical with telemetry on or off. *)

(** One field per telemetry flag.  [coverage_out] and [attribution_out]
    also show their block; [ledger] collects metrics, coverage and
    attribution without showing them. *)
type config = {
  log_level : Observe.Log.level option;  (** wins over [quiet] *)
  quiet : bool;
  metrics : bool;
  coverage : bool;
  coverage_out : string option;
  attribution : bool;
  attribution_out : string option;
  progress : bool;
  progress_out : string option;
  trace_out : string option;
  ledger : string option;
  run_label : string option;
}

(** Everything off, logging at the default threshold. *)
val off : config

(** Arm what the config asks for; run [f]; then stop progress
    (committing [--progress-out]), write [--trace-out] and disarm, also
    when [f] raises.  A failed write never masks [f]'s exception: it is
    reported on stderr, and re-raised only when [f] returned. *)
val with_session : config -> (unit -> 'a) -> 'a

(** What a window saw: the deltas of metrics, cost centers and GC
    counters between its opening and its close. *)
type observed = {
  o_metrics : (string * int) list;  (** counter deltas *)
  o_attribution : Observe.Attribution.row list;  (** cost-center deltas *)
  o_gc_minor_words : int;  (** process-wide, so wall-clock class *)
  o_gc_major_words : int;
}

(** Run [f] inside a window. *)
val observing : (unit -> 'a) -> 'a * observed

(** The [metrics:], [coverage:] and [\[attribution\]] blocks the config
    shows after a report; coverage is keyed by the registry name
    [program]. *)
val print_blocks :
  config -> program:string -> Pm_harness.Report.t -> observed -> unit

(** [TITLE:] and the non-zero counters, one per line. *)
val print_counters : title:string -> (string * int) list -> unit

(** Write [--coverage-out] and [--attribution-out], crash-safely. *)
val write_outputs : config -> observed -> unit

(** Digest of all coverage so far, [""] if none. *)
val coverage_digest : unit -> string

(** The ledger entry of a detection run of the registry program
    [program]: counts from the report, the witness count from the
    extraction, and the digest of [program]'s coverage row.  Entries
    are built in one place, where [--run-label] overrides the default
    run label and the metrics digest and cost centers come from the
    window. *)
val outcome_entry :
  config ->
  mode:string ->
  seed:int ->
  program:string ->
  Pm_harness.Runner.outcome ->
  Witness.extraction ->
  observed ->
  Observe.Ledger.entry

(** The ledger entry of a soak run named [run]: counts from its final
    snapshot, the witness counts of its corpus, and the digest of all
    coverage. *)
val soak_entry :
  config ->
  run:string ->
  variant:string ->
  seed:int ->
  jobs:int ->
  races:int ->
  recovery_failures:int ->
  witnesses:int ->
  Pm_harness.Soak.result ->
  observed ->
  Observe.Ledger.entry

(** {1 Jobs levels} *)

type sample = {
  s_outcome : Pm_harness.Runner.outcome;
  s_extraction : Witness.extraction;
  s_observed : observed;
}

(** One model-checking run at [jobs], inside a window. *)
val measure :
  ?options:Pm_harness.Runner.options -> jobs:int -> Pm_harness.Program.t -> sample

(** Interleaved best-of-[repeats]: each pass runs every level once
    before any level repeats, so no level always runs on a cold or a
    warm heap; the lowest elapsed per level wins.  Winners come back
    in [levels] order. *)
val best_of :
  repeats:int -> int list -> (rep:int -> jobs:int -> sample) -> sample list

val scaling_level : sample -> Observe.Scaling.level

(** ["1,2,4"] as sorted distinct levels; empty tokens are skipped.
    [None] if there is no level, a token is not an integer, or a level
    is below 1. *)
val parse_levels : string -> int list option
