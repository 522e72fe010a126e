(** Runs PM programs on the simulated machine, injecting crashes.

    The executor is the Jaaru-equivalent driver: it schedules cooperative
    threads (every {!Pmem} operation is a scheduling point), executes
    their memory operations on a {!Px86.Machine.t}, consults the crash
    plan before every instruction, and — when a detector is attached —
    feeds post-crash loads to the Yashme algorithms, checking {e every}
    candidate store a load could have read.

    {b Dispatch.}  While a run has one thread, each {!Pmem} operation of
    that thread is a direct call that does what one scheduling step does
    for it, in the same order: the previous step's background drain,
    the budget check, the scheduler's draw, the crash-plan check, the
    [at_flush_point] offer, the counts and the execution.  [spawn] and
    [join] perform their effect, and from the first spawn on every
    operation is an effect the scheduling loop takes.  Both paths give
    the same results, draws and hook calls; the run's thread count, not
    an option, selects the path.

    {b Domain safety (re-entrancy audit).}  [run] allocates every piece
    of mutable state it touches — scheduler tables, RNG, machine,
    effect-handler continuations — inside the call, so concurrent [run]s
    on separate domains never share structure, {e provided} their inputs
    are unshared.  The one per-domain value it writes is the domain's
    current-run slot ({!Pmem.current}): [run] sets it to itself and
    restores the previous value on every exit, a raise included, so a
    run nested inside another (the engine runs recoveries inside the
    [at_flush_point] hook) hands the slot back to the outer run, and
    runs on separate domains never see each other's:
    - a run never mutates its [inherited] crash state (image bytes,
      origins and candidates are the same afterwards), so runs on one
      domain may take the same state one after another; concurrent
      runs on separate domains each take their own
      {!Px86.Crashstate.copy};
    - a [detector] and an [observer] are single-scenario objects;
    - a [Px86.Machine.Cut_random] cut strategy carries a mutable
      {!Yashme_util.Rng.t} inside the variant and is the one knob that
      is {e not} safe to share across domains (the exploration engine
      refuses to parallelize it).
    The effect declarations in {!Pmem} are immutable registrations;
    handlers are installed per-run, per-domain. *)

(** When to crash the execution. *)
type plan =
  | Run_to_end  (** complete and shut down cleanly (all lines persisted) *)
  | Crash_at_end  (** complete, then crash (buffers lost, cuts apply) *)
  | Crash_before_op of int  (** crash before the n-th memory operation *)
  | Crash_before_flush of int
      (** crash immediately before the n-th flush/fence operation — the
          model-checking mode's systematic crash points (paper, §6) *)

(** Stable rendering of a plan for logs, findings and serialized
    witnesses. *)
val plan_label : plan -> string

(** Inverse of {!plan_label} ([None] on unrecognized input); the
    witness corpus round-trips crash plans through this pair. *)
val plan_of_label : string -> plan option

type sched_policy =
  | Round_robin
  | Random_sched  (** uniform choice among runnable threads (random mode) *)

(** Stable textual form of a scheduling policy, with its inverse
    (serialized witnesses). *)
val sched_label : sched_policy -> string

val sched_of_label : string -> sched_policy option

type outcome =
  | Completed
  | Crashed
  | Diverged
      (** a budget ([max_ops] fuel or [max_wall_s]) terminated a
          runaway phase.  The durable state is materialized as a crash
          cut, but no planned crash fired: the harness stops the
          scenario chain here and classifies the scenario as diverged *)

val outcome_label : outcome -> string

type result = {
  outcome : outcome;
  state : Px86.Crashstate.t;  (** durable memory after the run *)
  ops : int;  (** memory operations executed (incl. flushes/fences) *)
  flush_points : int;  (** flush/fence operations executed *)
  crashed_at_op : int option;
}

(** [run ~exec_id fn] executes [fn] as thread 0.

    @param detector attach a Yashme detector ([None] = bare Jaaru run).
      A post-crash load's origin and candidates are looked up in the
      inherited state only when the detector can use them
      ({!Yashme.Detector.checks_upto} the inherited state's execution,
      decided once, after {!Yashme.Detector.begin_exec}): loads of data
      whose writers the detector trusts look nothing up.  So neither a
      record adopted into the detector nor a log started while the run
      is going on reaches the run's loads
    @param inherited durable state from the previous execution of the
      failure scenario
    @param plan crash plan; default [Run_to_end]
    @param sb_policy store-buffer drain policy; default [Eager]
    @param variant persistency-model variant descriptor; default
      {!Px86.Variant.strict_tso} (the historical semantics)
    @param cut how a crash materializes each line; default [Cut_all]
    @param sched thread scheduling policy; default [Round_robin]
    @param seed seed for all randomized choices; default 0
    @param check_candidates also race-check the candidate stores a load
      could have read, not just the committed one (Jaaru integration,
      paper section 6); default true — disabling it is an ablation
    @param max_ops fuel budget: terminate the run with {!Diverged} after
      this many scheduled operations (meta operations included, so a
      yield-spin cannot dodge it).  Deterministic — the same program and
      seed diverge at the same point on every run.  Default: unlimited
    @param max_wall_s wall-clock budget in seconds, checked at every
      scheduling point; a last-resort valve for phases that burn real
      time, inherently run-dependent.  Budgets cannot preempt a loop
      that performs no {!Pmem} operation.  Default: unlimited
    @param observer an extra machine observer (e.g. a {!Px86.Trace}
      recorder), combined with the detector's
    @param at_flush_point serve other crash points from this run.
      Before each flush/fence operation the run's own plan does not
      crash at, the executor calls [at_flush_point n ~key ~ops crash],
      where [n] is the operation's flush-point index and [ops] the
      run's operation count so far.  [crash ()] materializes (with
      {!Px86.Machine.crash} and the run's cut) the result a
      [Crash_before_flush n] run of the same program and seed would
      return — [ops] and [n] are its [ops] and [flush_points] — and the
      run then goes on unchanged: materializing changes nothing the run
      can observe.
      [key] is [(Px86.Machine.generation, heap break)]: both only grow
      along a run, and two flush points of one run with equal keys
      materialize equal crash states (with a cut other than
      [Cut_random]), so a hook may serve the later one from what it
      did with the earlier one.  Not called once a thread has raised
      (the run is going to re-raise).  An exception the hook raises
      escapes [run]; the program never sees it.  Time spent in the hook does not
      count against [max_wall_s] or the run's [phase/*] attribution
      wall time.  The engine uses it to share one pre-crash run across
      a family of crash points (see [Pm_harness.Engine]) *)
val run :
  ?detector:Yashme.Detector.t ->
  ?inherited:Px86.Crashstate.t ->
  ?plan:plan ->
  ?sb_policy:Px86.Machine.sb_policy ->
  ?variant:Px86.Variant.t ->
  ?cut:Px86.Machine.cut_strategy ->
  ?sched:sched_policy ->
  ?seed:int ->
  ?check_candidates:bool ->
  ?max_ops:int ->
  ?max_wall_s:float ->
  ?observer:Px86.Observer.t ->
  ?at_flush_point:(int -> key:int * int -> ops:int -> (unit -> result) -> unit) ->
  exec_id:int ->
  (unit -> unit) ->
  result
