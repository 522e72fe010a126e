(** Deterministic witness replay — the corpus regression gate.

    Each witness is rebuilt into its failure scenario
    ({!Witness.scenario_of}) and re-run through the sandboxed
    {!Pm_harness.Engine.run_scenario}; the witness {e reproduces} when
    {!Witness.reobserve} finds its identity in the result again:

    - a [race] witness reproduces when some detected race (of the
      completed scenario, or gathered before a fault) has the same
      {!Yashme.Race.dedup_key};
    - a [recovery_failure] witness reproduces when the scenario faults
      with the same {!Pm_harness.Finding.recovery_failure_key};
    - a [consistency_violation] witness reproduces when the re-attached
      invariant oracle reports the same
      {!Pm_harness.Finding.consistency_key}.

    WITCHER-style, this validates findings by re-execution: a corpus
    that replays clean means every recorded bug still exists; a replay
    failure is either a fixed bug or a determinism regression — both
    worth failing CI over. *)

(** Replay one witness.  [Error] carries a human-readable diff: why it
    did not reproduce and which keys were seen instead. *)
val replay_one :
  lookup:(string -> Pm_harness.Program.t option) ->
  Witness.t ->
  (unit, string) result

type failure = { witness : Witness.t; reason : string }

type result = {
  total : int;
  reproduced : int;
  failures : failure list;  (** corpus order *)
}

val replay_all :
  lookup:(string -> Pm_harness.Program.t option) ->
  Witness.t list ->
  result
