(** Soak mode: crash testing as a long-running service.

    Where {!Runner} checks short scripted executions, the soak driver
    streams an open-ended supply of randomized client operations
    through the exploration {!Engine} under continuous crash/recover
    cycles, until a hard budget (wall clock or total client ops) stops
    it — WITCHER-style long randomized workloads that reach states
    fixed scripts never visit.

    {b Op streams.}  A benchmark participates by exposing an
    {!op_stream}: a keyspace bound, a trusted setup, a [connect]
    returning a client-op applier, and a post-crash [audit].  The
    driver draws operation kinds from a configurable read/write mix
    and keys from a keyspace distribution (uniform or hotspot); one
    (stream x mix x distribution) combination is a {e combo}, the unit
    of scheduling, coverage accounting and quarantine.

    {b Rounds.}  Each round builds one failure scenario per active
    combo (randomized ops, randomized crash plan) and hands the batch
    to {!Engine.run} — so live progress, coverage and attribution
    telemetry flow exactly as they do for the scripted drivers.  All
    per-scenario randomness derives from pure functions of (base seed,
    round index, combo label): a soak run is reproducible from its
    seed at any [jobs] count, and a resumed run re-winds to the exact
    scenario stream the interrupted run would have produced.

    {b Graceful degradation.}  A combo whose scenarios keep faulting
    (a fault storm — e.g. a crashing op handler) is quarantined once
    its fault count reaches the budget: the service logs it, stops
    scheduling it and keeps soaking the healthy combos rather than
    aborting.  A run whose combos are all quarantined stops with
    {!Exhausted}.

    {b Checkpoint/resume.}  The loop's whole resumable state is the
    {!snapshot}: round counter, cumulative totals and per-combo fault
    and quarantine state.  [on_checkpoint] surfaces it periodically;
    [run ~resume:snapshot] restarts from the next round with budgets,
    fault counts and quarantines intact.  Because iteration seeds are
    pure functions of (seed, round, combo), the resumed run replays the
    identical scenario stream — byte-identical witnesses — without
    serializing any RNG state.  The soak session
    ([Pm_corpus.Soak_store.serve]) persists each checkpoint with the
    witness corpus and a versioned manifest, and resumes from them.

    {b Cancellation.}  {!request_stop} (async-signal-safe: one atomic
    store; the session's SIGINT handler calls it) stops the loop at the
    next round boundary with {!Interrupted}. *)

(** {1 Op streams} *)

type op_kind = Read | Write | Delete | Rmw

type op_stream = {
  os_name : string;  (** stream name; the replay lookup handle *)
  os_keyspace : int;  (** keys are drawn from [1..os_keyspace] *)
  os_setup : (unit -> unit) option;
      (** trusted setup (runs once per stream, memoized like
          {!Engine.materialize_setup}) *)
  os_connect : unit -> op_kind -> key:int -> payload:int -> unit;
      (** open the store at the start of a pre-crash phase (resetting
          any volatile per-domain state for determinism) and return
          the client-op applier; [payload] is a small random value *)
  os_audit : unit -> unit;
      (** post-crash recovery check (the scenario's [post] phase) *)
  os_observe : (unit -> (string * string) list) option;
      (** optional state snapshot for the invariant oracle (the
          stream-level counterpart of {!Program.t}'s [observe] hook):
          read the recovered store's observable fields as (name, value)
          pairs.  Only consulted when [sk_oracle] is set. *)
}

(** {1 Op-mix buckets} *)

type mix = {
  mix_label : string;
  w_read : int;
  w_write : int;
  w_delete : int;
  w_rmw : int;  (** draw weights; at least one must be positive *)
}

type dist = Uniform | Hotspot
    (** [Hotspot]: 80% of draws hit the first fifth of the keyspace. *)

type bucket = { b_mix : mix; b_dist : dist }

(** The four built-in mixes: [read-heavy] (8/2/0/0),
    [write-heavy] (2/6/1/1), [churn] (1/4/4/1), [rmw-heavy] (2/3/0/5). *)
val default_mixes : mix list

(** [default_mixes] crossed with both distributions: 8 buckets. *)
val default_buckets : bucket list

(** {1 Soak programs}

    Each scenario's program name encodes everything needed to rebuild
    it — ["soak:STREAM:MIX:DIST:OPS:SEED"] — so soak witnesses replay
    through the ordinary corpus machinery via {!find_program}. *)

(** The program behind one soak scenario: [pre] connects and applies
    [ops] randomized client ops drawn from the bucket with an RNG
    seeded by [seed]; [post] audits. *)
val program :
  stream:op_stream -> bucket:bucket -> ops:int -> seed:int -> Program.t

(** The label {!run} gives the scenarios of the program named [name]:
    the seed-free combo label ["soak:STREAM:MIX:DIST"] for a soak
    program name, [name] itself for any other program.  A scenario's
    recovery-failure key begins with its label, so a rebuilt soak
    scenario must carry this one to observe the same key. *)
val scenario_label : string -> string

(** Rebuild a soak program from its encoded name ([None] if the name
    is not a soak program, names an unknown stream, mix or
    distribution, or is otherwise malformed).  Pass the registry's
    soak streams; used by the CLI's replay lookup. *)
val find_program : streams:op_stream list -> string -> Program.t option

(** {1 Configuration and state} *)

type config = {
  sk_streams : op_stream list;
  sk_buckets : bucket list;
  sk_options : Scenario.options;  (** seed, variant, budgets per phase *)
  sk_jobs : int;
  sk_ops_per_exec : int;  (** client ops streamed per scenario *)
  sk_fault_budget : int;
      (** faulted scenarios tolerated per combo before quarantine *)
  sk_max_ops : int option;  (** total client-op budget (deterministic) *)
  sk_wall_s : float option;
      (** wall-clock budget for this invocation (checked at round
          boundaries; nondeterministic stop point by nature) *)
  sk_checkpoint_every : int;  (** rounds between [on_checkpoint] calls *)
  sk_oracle : bool;
      (** attach an invariant-oracle context to every scenario of
          streams exposing [os_observe].  The reference is this round's
          exact op sequence run crash-free, so it is prepared per
          scenario (a few extra executions each); a faulting reference
          runs that scenario oracle-free.  Violations surface through
          the emitted witnesses ([on_batch] triples), not the totals. *)
}

(** [default_config ~streams] : all default buckets, 24 ops per
    scenario, fault budget 3, checkpoint every 10 rounds, no budgets,
    jobs 1, {!Scenario.default_options}, oracle off. *)
val default_config : streams:op_stream list -> config

(** Serializable per-combo state. *)
type bucket_state = {
  bs_combo : string;  (** combo label ["soak:STREAM:MIX:DIST"] *)
  bs_faults : int;
  bs_quarantined : bool;
}

(** The driver's whole resumable state: everything a checkpoint must
    persist (all deterministic — no wall clocks). *)
type snapshot = {
  snap_next_round : int;
  snap_scenarios : int;
  snap_completed : int;
  snap_faulted : int;
  snap_diverged : int;
  snap_crashed : int;  (** scenarios whose crash plan actually fired *)
  snap_executions : int;
  snap_ops : int;  (** executor memory/flush operations *)
  snap_client_ops : int;  (** randomized client ops streamed *)
  snap_races : int;  (** raw race observations *)
  snap_buckets : bucket_state list;  (** config combo order *)
}

type stop_reason = Op_budget | Wall_budget | Exhausted | Interrupted

val stop_reason_label : stop_reason -> string

type result = {
  r_snapshot : snapshot;
  r_reason : stop_reason;
  r_ok : bool;
      (** true iff the run ended by budget ([Op_budget]/[Wall_budget])
          — the manifest's [soak_ok] marker.  Interrupted and
          exhausted (every combo quarantined) runs are not ok. *)
  r_elapsed_s : float;  (** this invocation's wall time *)
}

(** {1 Running} *)

(** Ask the running soak loop to stop at the next round boundary
    (async-signal-safe; the session's SIGINT handler).  {!run} clears
    the flag when it starts. *)
val request_stop : unit -> unit

(** Drive the soak loop.

    [on_batch] receives each finished round's
    [(program_name, scenario, result)] triples in submission order —
    the witness-extraction feed (the store layer absorbs them into a
    deduplicating sink).  [on_checkpoint] fires every
    [sk_checkpoint_every] rounds with the current snapshot.

    [resume] restarts from a checkpoint snapshot: totals, fault counts
    and quarantines carry over, and rounds continue from
    [snap_next_round] with the identical derived seeds.

    Requires at least one stream and one bucket. *)
val run :
  ?resume:snapshot ->
  ?on_batch:((string * Scenario.t * Engine.scenario_result) list -> unit) ->
  ?on_checkpoint:(snapshot -> unit) ->
  config ->
  result
