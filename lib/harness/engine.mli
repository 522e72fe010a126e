(** The exploration engine: executes a batch of independent failure
    {!Scenario}s on a pool of OCaml 5 domains.

    Each crash plan of a model-checking (or random-mode) run is an
    independent failure scenario with its own detector instance, so the
    batch is embarrassingly parallel.  The engine

    + materializes the whole scenario list up front (the strategy
      drivers in {!Runner} enumerate crash plans eagerly),
    + memoizes the trusted setup phase once per program
      ({!materialize_setup}) — workers re-hydrate it with
      {!Px86.Crashstate.copy} so no two scenarios share mutable durable
      state,
    + executes scenarios on [jobs] domains pulling from a shared work
      queue, and
    + merges per-scenario results {e in submission order}, which makes
      the deduplicated race report byte-identical to a sequential run
      (see {!Yashme.Race.merge_ordered}).

    {b Families.}  A model-checking batch is mostly scenarios that
    differ only in where the pre-crash run crashes, so each would
    re-execute the same pre-crash prefix.  The engine instead groups a
    {e family} — a run of consecutive scenarios with the same label,
    and physically the same [setup], [options], [pre] and [post], whose plans
    are [Crash_before_flush n] or [Crash_at_end] (any [post_plan]; no
    [Cut_random], no oracle context) — into {e chunks} of a fixed
    number of members.  A chunk is one work-queue entry.  Its worker
    runs one pre-crash {!Pm_runtime.Executor.run} with a detector
    attached, planned to crash where the chunk's furthest member does.
    At each other member's flush point the executor's [at_flush_point]
    hook materializes the crash state with {!Px86.Machine.crash}, as
    that member's own crashing run would, and the member's recovery
    chain runs inline ({!run_member}; the chain code is
    {!run_scenario}'s, and both recoveries of a chain go through one
    recovery step).  What members share is read-only: the setup
    state (one {!Px86.Crashstate.copy} per chunk), the crash state of
    a flush point (runs never mutate their inherited state), and the
    pre-crash {!Yashme.Exec_record.t}, whose [lastflush]/[cvpre] joins
    a member's recovery makes are cleared before the pre-crash run
    resumes.  Members the shared run cannot serve — after a pre-crash
    fault, a budget divergence or a [Pmem.crash_now] — fall back to
    {!run_scenario}; once fail-fast's stop flag is up, unserved members
    are cancelled like queued scenarios.

    {b Shared recovery rows.}  A two-crash member crashes the pre-crash
    run at [plan], then its first recovery at [post_plan =
    Crash_before_flush m], and runs a second recovery.  The two-crash
    members of a chunk that crash the pre-crash run at one point form a
    {e row}.  Their first recoveries are the same run up to each
    member's own point, so the row is served the way the chunk's
    pre-crash run serves its members, one level down: one first
    recovery runs from the shared crash state (seed + 1, exec id
    {!post_exec}), planned to crash where the row's furthest member
    does, with an [at_flush_point] hook and a fresh detector that logs
    its calls.  That detector adopts no record, so the calls find no
    pre-crash record: they check and count nothing.  At each member's
    point, the member adopts the pre-crash record and the row's record,
    replays the calls the row's recovery made so far (the calls its own
    first recovery would make, in the same order, against the cleared
    pre-crash record), takes the hook's materialization as its first
    recovery's result, and runs its second recovery from that state.
    The joins its recoveries make are cleared on both records
    afterwards.  The row's furthest member, and the members beyond a
    recovery that completed before their point, are served from the
    run's result.  A member whose point the row's recovery never reaches
    because it raised, was stopped by a budget or crashed itself falls
    back to {!run_scenario}.  A chunk boundary splits a row into parts
    that each run once.

    {b Reused recoveries.}  Within a chunk, a member runs a recovery only
    when its crash state differs from the one the last recorded recovery
    of the same run started from.  This holds at both levels: for the
    first recovery of a one-crash member ([post_plan = Run_to_end]),
    keyed along the pre-crash run, and for the second recovery of a row
    member, keyed along the row's recovery run.  The executor passes
    the hook a key for the state a crash would leave — the persistence
    generation ({!Px86.Machine.generation}) and the heap break — and
    equal keys of one run mean equal crash states.  A recovery that
    completes is recorded: the detector calls it made
    ({!Yashme.Detector.log_calls}) and its execution, op and flush-point
    counts.  A later member with the same key skips materializing its
    crash state and running that recovery: its own detector replays the
    recorded calls ({!Yashme.Detector.replay}) against its own view of
    the shared records, so it keeps its own races, verdicts, counters
    and {!completed} record.  This relies on {!Program.t}'s [post]
    contract: a recovery depends only on its crash state, program, seed
    and options.  Only the last key's recording of a run is kept, and
    it is dropped once the key moves (keys only grow along a run);
    nothing is kept across rows, so a worker holds at most one row run
    and one recording per level.  Faulted, diverged or self-crashed
    recoveries record nothing; members served from a run's final result
    and fallback members run their recoveries.
    [engine/recoveries_reused] counts a member once if it replayed a
    recorded recovery; a row member's first recovery, served by the
    row's run, is not counted there: row sharing shows as fewer
    [phase/post] runs.

    The chunk size is a constant and sharing never crosses a chunk, so
    every result, counter, coverage and attribution total is the same
    at every [jobs].  Counters of executed work count less: the
    [executor/pre/*] operation counters, [phase/pre],
    [px86/snapshot_copies], [detector/flush_records] (a shared run
    builds its record once), and for every recovery a row shares or a
    member replays, the [executor/post/*] counters, [phase/post],
    [executor/crashes], [executor/ops_per_exec] samples,
    [px86/crash_materializations] (one per flush point served, not per
    member, and none for a replayed recovery) and the
    [px86/crash_lines], [px86/fb_applies] and [px86/sb_evictions] work
    of the recovery.  A member's [wall_s] includes the shared-run time
    its worker spent since the previous member it served.

    {b Fault isolation.}  A misbehaving scenario never poisons the
    batch.  {!run_scenario} sandboxes every phase: an exception raised
    by setup, pre-crash or recovery code is captured (with its raw
    backtrace) into a {!fault} and the scenario completes as
    {!Faulted}; a phase that exceeds a {!Scenario.options} budget
    ([max_ops] fuel / [max_wall_s]) is terminated by the executor with
    {!Pm_runtime.Executor.Diverged} and the scenario completes with
    [diverged = true].  {!run} therefore returns {e all} results —
    partial batches survive — unless the opt-in [fail_fast] is set, in
    which case workers cancel the remaining queue cooperatively (an
    [Atomic] stop flag checked before each claim) and the
    earliest-submitted recorded fault is re-raised with
    [Printexc.raise_with_backtrace].

    A recovery phase that raises after a {e real} crash is classified
    by {!Finding.is_recovery_failure}: WITCHER-style crash-consistency
    evidence, merged into {!Report} alongside persistency races.

    Determinism contract: for any [jobs >= 1], [run ~jobs scenarios]
    returns the same {!scenario_result} list (modulo wall times;
    compare with {!signature} / {!structural}) as [run ~jobs:1
    scenarios], and as {!run_scenario} applied to each scenario in
    turn — faults and fuel divergences included.  Wall-clock
    budgets and fail-fast cancellation are the two knobs that trade
    this determinism away (documented per knob).  Scenarios whose
    options are not domain-safe ({!Scenario.parallel_safe}) force
    [jobs = 1], with a warning through {!Observe.Log} when a higher job
    count was requested.

    Observability: counters [engine/faults],
    [engine/recovery_failures], [engine/cancelled] and
    [executor/divergences] accumulate in {!Observe.Metrics}, and the
    cost centers [engine/queue_wait], [engine/work], [engine/merge],
    [gc/minor] and [gc/major] charge each worker's idle time, each
    scenario's work and GC words and each merge.  Metrics are merged
    outside the race-report path and never affect it.

    When {!Observe.Coverage} is enabled, each scenario runs under its
    label as the ambient coverage program, accounting crash-plan
    indices exercised, crash points fired, detector expansions/prunes
    and materialized cache lines; merged totals are byte-identical for
    every [jobs] count.  When {!Observe.Progress} is active, {!run}
    announces the batch and ticks once per finished scenario. *)

(** Execution ids within one failure scenario. *)

val setup_exec : int
val pre_exec : int
val post_exec : int

(** Run a program's setup phase exactly as the sequential harness does
    (round-robin schedule, no detector: setup data is trusted after a
    clean shutdown).  [None] when the program has no setup phase. *)
val run_setup : Scenario.options -> Program.t -> Px86.Crashstate.t option

(** Decide how scenarios of [p] obtain their setup state: a memoized
    {!Scenario.Snapshot} when the setup run is seed-independent (eager
    store-buffer drain), a per-scenario {!Scenario.Run_setup} otherwise. *)
val materialize_setup : options:Scenario.options -> Program.t -> Scenario.setup

(** Run one phase of a scenario.  All pre-crash, recovery and
    crashed-recovery executions go through this single code path,
    including the budget options and a family's shared pre-crash and
    recovery runs ([at_flush_point], see {!Pm_runtime.Executor.run}). *)
val run_phase :
  ?detector:Yashme.Detector.t ->
  ?observer:Px86.Observer.t ->
  ?inherited:Px86.Crashstate.t ->
  ?at_flush_point:
    (int -> key:int * int -> ops:int -> (unit -> Pm_runtime.Executor.result) -> unit) ->
  options:Scenario.options ->
  plan:Pm_runtime.Executor.plan ->
  seed:int ->
  exec_id:int ->
  (unit -> unit) ->
  Pm_runtime.Executor.result

(** The one recovery path: {!run_phase} specialized to [Run_to_end].
    Every post-crash recovery run in the harness uses this helper. *)
val run_recovery :
  ?detector:Yashme.Detector.t ->
  ?observer:Px86.Observer.t ->
  options:Scenario.options ->
  inherited:Px86.Crashstate.t ->
  seed:int ->
  exec_id:int ->
  (unit -> unit) ->
  Pm_runtime.Executor.result

(** Coverage index of a crash plan: [Crash_before_flush n] is [Some n],
    [Crash_at_end] is [Some (-1)] (the ["end"] pseudo-index of
    {!Observe.Coverage}), untargeted plans are [None]. *)
val plan_index : Pm_runtime.Executor.plan -> int option

(** Did this run's crash plan actually fire?  ([Crash_at_end] completes
    and then crashes; a targeted plan that never fired leaves a cleanly
    shut-down state with no crash; a {!Pm_runtime.Executor.Diverged}
    run was killed by a budget, not a crash.) *)
val crash_fired : plan:Pm_runtime.Executor.plan -> Pm_runtime.Executor.result -> bool

type completed = {
  label : string;
  races : Yashme.Race.t list;  (** the scenario detector's raw races *)
  chain_crashed : bool;
      (** every crash plan in the scenario's chain fired (for two-crash
          scenarios: the recovery crash fired too) *)
  diverged : bool;
      (** some phase was terminated by a [max_ops]/[max_wall_s] budget *)
  executions : int;
      (** runs of the scenario's chain, including a re-run setup, as if
          each ran on its own: a phase served by a shared run or a
          replayed recovery counts although this scenario executed
          nothing for it *)
  ops : int;
      (** memory/flush operations of those runs, counted the same way *)
  flush_points : int;  (** flush points of the pre-crash run *)
  post_flush_points : int option;
      (** flush points of the first recovery run, when it ran — the
          probe datum two-crash drivers need *)
  observed : bool;
      (** the oracle observe phase ran (oracle context attached and the
          chain crashed and recovered) *)
  violations : (string * string) list;
      (** oracle (key, detail) violations, sorted by key; empty unless
          [observed] *)
  wall_s : float;
}

(** A sandboxed scenario phase exception: the reportable projection
    ({!Finding.fault}), the raw exception + backtrace for the
    fail-fast re-raise, and the partial evidence gathered before the
    fault. *)
type fault = {
  f_info : Finding.fault;
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
  f_races : Yashme.Race.t list;  (** races detected before the fault *)
  f_executions : int;
  f_ops : int;
  f_wall_s : float;
}

type scenario_result = Completed of completed | Faulted of fault

(** Execute one scenario on the calling domain, from its setup state
    on.  Never raises: phase exceptions are captured as {!Faulted}.
    Replay, minimization, soak and random mode run scenarios this way
    (none of their batches forms a family). *)
val run_scenario : Scenario.t -> scenario_result

(** Serve one family member from shared runs: what {!run} does for
    each member a shared run reaches.  [records] are the shared runs'
    {!Yashme.Exec_record.t}s: the pre-crash run's, and for a two-crash
    member also its row's first recovery's.  [inherited] is the setup
    state the pre-crash run started from, and [pre] the result the
    member's own pre-crash phase would have returned (for
    [Crash_before_flush n], the [at_flush_point] materialization at
    flush point [n]).  [first], for a member of a row, stands in for
    its first recovery: the detector calls the row's recovery made up
    to the member's crash point ({!Yashme.Detector.logged}) and that
    recovery's materialization there.  The member's detector reads
    [records]; the [lastflush]/[cvpre] joins its recoveries make are
    cleared before this returns, leaving each record exactly as it was.
    For members without a setup run ([No_setup] or [Snapshot]).  Never
    raises. *)
val run_member :
  records:Yashme.Exec_record.t list ->
  ?inherited:Px86.Crashstate.t ->
  ?first:Yashme.Detector.log * Pm_runtime.Executor.result ->
  Scenario.t ->
  Pm_runtime.Executor.result ->
  scenario_result

type stats = {
  jobs : int;  (** worker domains actually used *)
  scenarios : int;
  completed : int;
  faulted : int;
  diverged : int;  (** completed scenarios with a budget-killed phase *)
  cancelled : int;  (** queue entries cancelled by fail-fast (else 0) *)
  executions : int;
  ops : int;
  cpu_s : float;  (** sum of per-scenario wall times (worker-side) *)
  elapsed_s : float;  (** end-to-end wall time of the batch *)
}

(** The timing-free projection of {!stats}: determinism comparisons
    must use this (or {!signature}), never polymorphic equality over
    the full records — [cpu_s]/[elapsed_s]/wall times vary run to run,
    and [cancelled] is scheduling-dependent under fail-fast. *)
type structural_stats = {
  s_jobs : int;
  s_scenarios : int;
  s_completed : int;
  s_faulted : int;
  s_diverged : int;
  s_executions : int;
  s_ops : int;
}

val structural : stats -> structural_stats

(** The timing-free projection of a {!scenario_result} (everything but
    the wall times and the fault's backtrace, whose rendering depends
    on the build). *)

type completed_sig = {
  sig_label : string;
  sig_races : Yashme.Race.t list;
  sig_chain_crashed : bool;
  sig_diverged : bool;
  sig_executions : int;
  sig_ops : int;
  sig_flush_points : int;
  sig_post_flush_points : int option;
  sig_observed : bool;
  sig_violations : (string * string) list;
}

type fault_sig = {
  sig_f_label : string;
  sig_f_phase : Finding.phase;
  sig_f_exn : string;
  sig_f_plan : string;
  sig_f_post_plan : string;
  sig_f_seed : int;
  sig_f_crash_fired : bool;
  sig_f_races : Yashme.Race.t list;
  sig_f_executions : int;
  sig_f_ops : int;
}

type scenario_sig = Sig_completed of completed_sig | Sig_faulted of fault_sig

val signature : scenario_result -> scenario_sig

type run_result = { results : scenario_result list; stats : stats }

(** Execute the batch on [jobs] domains (default 1; clamped to the
    batch size and to 1 for non-{!Scenario.parallel_safe} batches).
    Families run in chunks (see the module description).  Results are
    in submission order and {e complete}: faulting scenarios appear as
    {!Faulted}, healthy ones as {!Completed}, and no result is ever
    discarded.

    With [fail_fast] (default false), a recorded fault raises a stop
    flag that workers check before claiming the next queue entry and
    before serving each family member;
    remaining entries are cancelled (visible as [engine/cancelled]
    counter ticks, since the result record never materializes) and the earliest-submitted recorded
    fault's exception is re-raised with its original backtrace once all
    workers have drained. *)
val run : ?jobs:int -> ?fail_fast:bool -> Scenario.t list -> run_result

(** Merged races in scenario order; [keep] filters completed scenarios
    (e.g. two-crash drivers keep only [chain_crashed] scenarios).
    Races a faulting scenario detected before its fault are always
    kept. *)
val races : ?keep:(completed -> bool) -> run_result -> Yashme.Race.t list

(** Faults of the run, in submission order — feed to
    {!Report.dedup}'s [faults] argument. *)
val faults : run_result -> Finding.fault list

(** Number of completed scenarios with a budget-killed phase. *)
val diverged_count : run_result -> int
