(** One run's telemetry, from start to finish.

    [check], [check-all] and [soak] each run inside one
    {!with_session}, configured by the CLI's telemetry flags.  Runs are
    observed through a window ({!observing}); the blocks, JSONL files
    and ledger entries are built from that observation, never from the
    report, so reports are byte-identical with telemetry on or off. *)

(** One field per telemetry flag.  [coverage_out] and [attribution_out]
    also show their block.  Any of [metrics], [coverage],
    [coverage_out], [attribution], [attribution_out] and [ledger] arms
    the one registry ({!Observe.Metrics}); [ledger] collects without
    showing. *)
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
  ledger : string option;
  run_label : string option;
}

(** Everything off, logging at the default threshold. *)
val off : config

(** Arm what the config asks for; run [f]; then stop progress
    (committing [--progress-out]) and disarm, also when [f] raises.  A
    failed commit never masks [f]'s exception: it is reported on
    stderr, and re-raised only when [f] returned. *)
val with_session : config -> (unit -> 'a) -> 'a

(** What a window saw: the metrics and cost centers of the work run
    inside it ({!Observe.Metrics.window}). *)
type observed = {
  o_metrics : (string * int) list;
      (** non-zero counter deltas; histogram maxima are the window's own *)
  o_attribution : Observe.Attribution.row list;  (** cost-center deltas *)
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
