(** The two operating modes of Yashme (paper, section 4):

    - {!model_check_outcome} systematically injects a crash before every
      flush and fence operation of the pre-crash workload (plus one
      crash at program end) and runs recovery after each — suitable for
      the PM index benchmarks; {!model_check_recovery_outcome} also
      crashes each recovery (two-crash scenarios);
    - {!random_mode_outcome} runs [execs] randomized executions (random
      thread schedules and a crash before a random fence) — used for the
      larger PMDK / Memcached / Redis programs.

    Both run every post-crash load through the detector, checking all
    candidate stores.

    Both modes are thin strategy drivers over {!Engine}: they enumerate
    the crash plans, build one {!Scenario.t} per plan against a
    memoized setup snapshot, and hand the batch to the engine's domain
    pool.  [jobs] (default 1) selects the number of worker domains; the
    deduplicated report is identical for every job count.

    {b Fault isolation.}  The engine sandboxes every scenario phase, so
    a raising or budget-exceeding scenario never takes down the driver:
    its fault (or divergence) is merged into the {!Report} alongside
    the races, and recovery-phase faults on a real crash image become
    recovery-failure findings.  The drivers additionally guard their
    own un-sandboxed probes (setup materialization, flush-point
    counting): a probe fault yields a report carrying that single fault
    and zero executions.  [fail_fast] (default false) instead cancels
    the remaining batch on the first fault and re-raises it with its
    original backtrace. *)

type options = Scenario.options = {
  mode : Yashme.Detector.mode;
  eadr : bool;  (** eADR persistency semantics (paper, section 7.5) *)
  coherence : bool;  (** condition (2) of Definition 5.1; ablation *)
  check_candidates : bool;  (** check all candidate stores; ablation *)
  sched : Pm_runtime.Executor.sched_policy;
  sb_policy : Px86.Machine.sb_policy;
  variant : Px86.Variant.t;
      (** persistency-model variant (default {!Px86.Variant.strict_tso}) *)
  cut : Px86.Machine.cut_strategy;
  seed : int;
  max_ops : int option;
      (** per-phase fuel budget (scheduled operations); deterministic *)
  max_wall_s : float option;
      (** per-phase wall-clock budget; a nondeterministic last resort *)
}

val default_options : options

(** Count the flush/fence crash points of the program's pre-crash phase
    (dry run, no detector). *)
val count_flush_points : ?options:options -> Program.t -> int

(** One pre-crash execution under [plan], then recovery.  Returns the
    detector (holding raw races) and the executor results. *)
val run_once :
  ?options:options ->
  plan:Pm_runtime.Executor.plan ->
  Program.t ->
  Yashme.Detector.t * Pm_runtime.Executor.result * Pm_runtime.Executor.result option

(** Like {!run_once}, additionally recording the pre-crash execution's
    commit trace and logging the recovery's detector calls
    ({!Yashme.Detector.log_calls}), for rendering race witnesses with
    {!Witness.explain}. *)
val run_once_traced :
  ?options:options ->
  plan:Pm_runtime.Executor.plan ->
  Program.t ->
  Yashme.Detector.t * Px86.Trace.t

(** {2 The invariant oracle}

    With [?oracle:true], each driver prepares a WITCHER-style oracle
    context before exploration: the crash-free reference pipeline runs
    (recovery over a clean workload-free image, then a traced full
    workload run plus recovery), invariants are inferred from the
    workload trace ({!Pm_oracle.Invariant.infer}), and every scenario
    carries the resulting {!Scenario.oracle} context so the engine
    checks each crashed-and-recovered state.  Violations surface as
    {!Report.consistency_violations} and the inferred invariant labels
    are attached for {!Report.oracle_to_string}.  Programs without an
    [observe] hook run exactly as with the oracle off. *)

type oracle_prep = {
  op_invariants : Pm_oracle.Invariant.t list;  (** sorted *)
  op_ctx : Scenario.oracle;
}

(** Build the oracle context for a program: [None] when it has no
    [observe] hook.  [invariants] substitutes a pre-inferred set (the
    [oracle check --invariants] path) for trace inference.  Reference
    executions run detector-free and contribute nothing to race
    reports.  Raises on reference faults — callers guard (the drivers
    use their probe guard). *)
val prepare_oracle :
  ?options:options ->
  ?invariants:Pm_oracle.Invariant.t list ->
  Program.t ->
  oracle_prep option

val oracle_invariant_labels : oracle_prep -> string list

(** {2 Outcomes}

    The corpus subsystem needs more than the deduplicated report: to
    serialize a race witness it must know {e which scenario} (crash
    plan, seed, options) first produced each race key.  Each driver
    therefore returns the report, the engine statistics {e and} the
    submission-ordered scenario/result pairs behind them.  Every pair carries an {!evidence} tag mirroring
    exactly what the report kept: [Full] pairs contribute races and
    faults, [Faults_only] pairs only faults (the recovery driver's
    probe wave, and grid scenarios whose chain did not fully crash —
    their races are not in the report, so no witness may cite them). *)

type evidence = Full | Faults_only

type outcome = {
  o_report : Report.t;
  o_stats : Engine.stats;
  o_pairs : (Scenario.t * Engine.scenario_result * evidence) list;
      (** submission order: probe wave first for the recovery driver *)
}

(** The consistency findings of a completed scenario, one per oracle
    violation, in the result's order.  The report and the corpus
    extractor both build them here. *)
val consistencies : Scenario.t -> Engine.completed -> Finding.consistency list

val model_check_outcome :
  ?options:options ->
  ?jobs:int ->
  ?fail_fast:bool ->
  ?oracle:bool ->
  ?invariants:Pm_oracle.Invariant.t list ->
  Program.t ->
  outcome

(** Two-crash failure scenarios (section 6's execution stack): for every
    pre-crash point, also crash the {e recovery} before each of its own
    flush points and run a second recovery — the only way to find
    persistency races in recovery code. *)
val model_check_recovery_outcome :
  ?options:options ->
  ?jobs:int ->
  ?fail_fast:bool ->
  ?oracle:bool ->
  Program.t ->
  outcome

val random_mode_outcome :
  ?options:options ->
  ?jobs:int ->
  ?fail_fast:bool ->
  ?oracle:bool ->
  execs:int ->
  Program.t ->
  outcome

(** [single_random] is one random-mode execution pair, the experiment
    Table 5 reports ("a single randomly generated execution"). *)
val single_random : ?options:options -> Program.t -> Report.t

(** Run one random execution pair without any detector, measuring the
    bare infrastructure (the paper's "Jaaru time" column).  Returns
    wall-clock seconds. *)
val time_without_detector : ?options:options -> Program.t -> float
