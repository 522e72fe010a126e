(** A failure scenario: one self-contained unit of crash exploration.

    A scenario bundles everything one worker needs to explore a single
    crash point — the trusted setup state, the pre-crash and recovery
    programs, the crash plan and the harness options.  Scenarios are
    pure descriptions: building one runs nothing, and two scenarios
    never share mutable state (a {!Snapshot} is copied before use), so
    the {!Engine} is free to execute them in any order on any domain.

    Scenarios built from the same [setup], [options], [pre] and [post]
    values (as {!of_program} does for every plan of one program) and
    crashing at a flush point or at the end form a {e family}: the
    engine runs their common pre-crash prefix once per chunk of members
    and serves each member at its crash point, with results identical
    to running each scenario on its own.  Build a batch's scenarios from shared
    values to get this; copies of equal values run one by one. *)

type options = {
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
      (** per-phase fuel budget (deterministic); a phase exceeding it is
          terminated with {!Pm_runtime.Executor.Diverged} *)
  max_wall_s : float option;
      (** per-phase wall-clock budget in seconds (run-dependent) *)
}

val default_options : options

(** {2 Options serialization}

    The witness corpus persists a scenario's options as a flat,
    order-stable field list; {!options_fields} and {!options_of_fields}
    are exact inverses.  [Cut_random] is the one lossy-looking case: it
    serializes by name and its Rng is rebuilt from the serialized seed,
    which reproduces the original draws because the seed fully
    determined them. *)

val mode_label : Yashme.Detector.mode -> string
val mode_of_label : string -> Yashme.Detector.mode option
val options_fields : options -> (string * Yashme_util.Json.value) list
val options_of_fields : (string * Yashme_util.Json.value) list -> (options, string) result

(** True when any option draws from an RNG at exploration time
    ([Random_sched], [Random_drain], [Cut_random]): such witnesses are
    re-searched for a deterministic equivalent by the minimizer. *)
val options_randomized : options -> bool

(** How a scenario obtains the trusted post-setup durable state.

    - [No_setup]: the program has no setup phase; boot from pristine
      memory.
    - [Snapshot cs]: the memoized setup state, computed once per
      program.  Workers take a {!Px86.Crashstate.copy} before running
      (one per scenario, or one per family chunk), so a scenario can
      never mutate the shared snapshot.  Only valid
      when the setup phase is seed-independent (eager store-buffer
      drain); {!Engine.materialize_setup} decides.
    - [Run_setup fn]: re-execute the setup phase with the scenario's
      own options (needed when a randomized drain policy makes the
      setup state depend on the scenario seed). *)
type setup =
  | No_setup
  | Snapshot of Px86.Crashstate.t
  | Run_setup of (unit -> unit)

(** The invariant-oracle context a driver may attach ([--oracle]): the
    program's [observe] snapshot hook plus a checker closed over the
    crash-free reference ({!Runner.prepare_oracle} builds it).  Pure
    description like the rest of the scenario; never serialized — a
    consistency witness rebuilds the context from the program at replay
    time. *)
type oracle = {
  oc_observe : unit -> (string * string) list;
  oc_check : observed:(string * string) list -> (string * string) list;
      (** (plan-free violation key, human detail) pairs, sorted *)
}

type t = {
  label : string;
  setup : setup;
  pre : unit -> unit;
  post : unit -> unit;
  plan : Pm_runtime.Executor.plan;  (** crash plan for the pre phase *)
  post_plan : Pm_runtime.Executor.plan;
      (** plan for the {e first} recovery run.  [Run_to_end] for the
          ordinary one-crash scenarios; a crash plan turns the scenario
          into a two-crash one (crash inside recovery, then a second,
          clean recovery — section 6's execution stacks). *)
  options : options;
  oracle : oracle option;
      (** when set and the chain really crashed, the engine runs the
          observe phase (detector-free, sandboxed) and checks it *)
}

val make :
  ?post_plan:Pm_runtime.Executor.plan ->
  ?oracle:oracle ->
  label:string ->
  setup:setup ->
  pre:(unit -> unit) ->
  post:(unit -> unit) ->
  plan:Pm_runtime.Executor.plan ->
  options:options ->
  unit ->
  t

(** Scenario for one crash plan of a {!Program.t}. *)
val of_program :
  ?post_plan:Pm_runtime.Executor.plan ->
  ?oracle:oracle ->
  setup:setup ->
  plan:Pm_runtime.Executor.plan ->
  options:options ->
  Program.t ->
  t

(** False when the scenario's options embed domain-unsafe shared state
    ([Cut_random]'s mutable Rng); the engine then refuses to spread the
    batch over several domains. *)
val parallel_safe : t -> bool
