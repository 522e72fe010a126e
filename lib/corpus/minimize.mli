(** Delta-debugging-style witness minimization.

    Greedy ddmin over the scenario description, verifying after every
    candidate step that the witness's identity key still reproduces:

    + {b derandomize} — a witness whose options draw from an RNG at
      exploration time ({!Pm_harness.Scenario.options_randomized}) is
      re-searched for an equivalent deterministic scenario
      (round-robin schedule, eager drain, [Cut_all]) over the
      systematic [Crash_before_flush] plans, so minimized witnesses
      never depend on random mode;
    + {b drop the double crash} — a two-crash chain whose key survives
      with [post_plan = Run_to_end] keeps the simpler chain;
    + {b shrink the crash-plan index} — the smallest
      [Crash_before_flush]/[Crash_before_op] index (or a flush-indexed
      conversion of an op-indexed or end-of-program plan) still
      reproducing the key;
    + {b tighten fuel} — [max_ops] is pinned to the minimized chain's
      observed operation count, so a future regression that makes the
      scenario run away trips the budget instead of hanging replay.

    A candidate is the witness with other plans or options.  Each probe
    rebuilds it with {!Witness.scenario_of}, runs it and judges the
    result with {!Witness.reobserve}, the path replay takes; the
    minimized witness's summary is the re-observed one.  A candidate
    whose setup raises is skipped without a run.

    A [recovery_failure] witness embeds its crash plans in its identity
    key, so only the fuel step can apply to it.  A witness whose key no
    longer reproduces at all is returned unchanged with
    [reproduced = false].

    Every adopted step is re-verified through {!Replay.replay_one}
    before being returned, so a minimized corpus always replays
    clean. *)

type shrink = {
  original : Witness.t;
  minimized : Witness.t;
  reproduced : bool;  (** the original witness reproduced at all *)
  derandomized : bool;  (** step 1 replaced randomized options *)
  runs : int;
      (** scenario executions spent searching (0 for a witness that did
          not reproduce) *)
}

val minimize :
  lookup:(string -> Pm_harness.Program.t option) -> Witness.t -> shrink

(** Minimize a whole corpus in order. *)
val minimize_all :
  lookup:(string -> Pm_harness.Program.t option) -> Witness.t list -> shrink list
