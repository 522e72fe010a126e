module Executor = Pm_runtime.Executor
module Scenario = Pm_harness.Scenario
module Engine = Pm_harness.Engine

type shrink = {
  original : Witness.t;
  minimized : Witness.t;
  reproduced : bool;
  derandomized : bool;
  runs : int;
}

let ops_of = function
  | Engine.Completed c -> c.Engine.ops
  | Engine.Faulted f -> f.Engine.f_ops

let minimize ~lookup (w : Witness.t) =
  let runs = ref 0 in
  (* A candidate is [w] with other plans or options.  Run it and
     re-observe [w]'s identity: [Some (seen, result)] iff its key shows
     up again, [seen] carrying the fresh summary.  Each step that
     changes the options first checks that their setup materializes
     ([clean]), so here [scenario_of] fails only when a consistency
     witness's oracle cannot be rebuilt under the candidate's options
     (a fuel step whose budget starves the reference): that run counts
     and misses. *)
  let probe (c : Witness.t) =
    incr runs;
    match Witness.scenario_of ~lookup c with
    | Error _ -> None
    | Ok s -> (
        let result = Engine.run_scenario s in
        match Witness.reobserve c s result with
        | Ok seen -> Some (seen, result)
        | Error _ -> None)
  in
  (* [c]'s clean run, without crash or oracle (a clean run consults no
     oracle, and a race witness rebuilds none): [Error] only when the
     setup raises under [c]'s options. *)
  let clean (c : Witness.t) =
    Witness.scenario_of ~lookup
      {
        c with
        Witness.kind = Witness.Race;
        plan = Executor.Run_to_end;
        post_plan = Executor.Run_to_end;
      }
  in
  (* Pre-crash flush points under [c]'s options; [None] when the setup
     raises, which costs no run. *)
  let flush_points c =
    match clean c with
    | Error _ -> None
    | Ok s -> (
        incr runs;
        match Engine.run_scenario s with
        | Engine.Completed r -> Some r.Engine.flush_points
        | Engine.Faulted _ -> Some 0)
  in
  (* First reproducing plan of [plans] against [base]'s options. *)
  let first_hit (base : Witness.t) plans =
    List.find_map
      (fun plan ->
        let c = { base with Witness.plan } in
        Option.map (fun _ -> c) (probe c))
      plans
  in
  let flush_plans points =
    List.init points (fun n -> Executor.Crash_before_flush n)
  in
  match probe w with
  | None ->
      {
        original = w;
        minimized = w;
        reproduced = false;
        derandomized = false;
        runs = 0;
      }
  | Some _ -> (
      (* Step 1: derandomize.  The deterministic search space is the
         model checker's: every Crash_before_flush index plus
         Crash_at_end, single-crash, round-robin, eager drain. *)
      let cand, derandomized =
        if not (Scenario.options_randomized w.Witness.options) then (w, false)
        else
          let det =
            {
              w with
              Witness.options =
                {
                  w.Witness.options with
                  Scenario.sched = Executor.Round_robin;
                  sb_policy = Px86.Machine.Eager;
                  cut = Px86.Machine.Cut_all;
                };
              plan = Executor.Run_to_end;
              post_plan = Executor.Run_to_end;
            }
          in
          match flush_points det with
          | None -> (w, false)
          | Some points -> (
              match
                first_hit det (flush_plans points @ [ Executor.Crash_at_end ])
              with
              | Some c -> (c, true)
              | None -> (w, false))
      in
      (* Step 2: drop the double crash. *)
      let cand =
        if cand.Witness.post_plan = Executor.Run_to_end then cand
        else
          let c = { cand with Witness.post_plan = Executor.Run_to_end } in
          if Option.is_some (probe c) then c else cand
      in
      (* Step 3: shrink the crash-plan index.  Ascending scan, so the
         first hit is the minimum. *)
      let cand =
        let at_flush_points () =
          first_hit cand
            (flush_plans (Option.value (flush_points cand) ~default:0))
        in
        let shrunk =
          match cand.Witness.plan with
          | Executor.Crash_before_flush n -> first_hit cand (flush_plans n)
          | Executor.Crash_at_end -> at_flush_points ()
          | Executor.Crash_before_op n -> (
              match at_flush_points () with
              | Some _ as c -> c
              | None ->
                  first_hit cand
                    (List.init n (fun k -> Executor.Crash_before_op k)))
          | Executor.Run_to_end -> None
        in
        Option.value shrunk ~default:cand
      in
      (* Step 4: tighten fuel to the observed chain cost (an upper bound
         on any single phase, so the budget never trips a healthy
         replay).  The minimized summary is the re-observed one. *)
      let minimized =
        match probe cand with
        | None -> cand (* unreachable: cand reproduced *)
        | Some (seen, result) ->
            let fuel =
              match cand.Witness.options.Scenario.max_ops with
              | Some m -> min m (ops_of result)
              | None -> ops_of result
            in
            let fueled =
              {
                seen with
                Witness.options =
                  { seen.Witness.options with Scenario.max_ops = Some fuel };
              }
            in
            if Result.is_ok (clean fueled) && Option.is_some (probe fueled)
            then fueled
            else seen
      in
      (* The contract: a minimized corpus always replays clean.  Verify
         through replay itself. *)
      match Replay.replay_one ~lookup minimized with
      | Ok () ->
          { original = w; minimized; reproduced = true; derandomized; runs = !runs }
      | Error _ ->
          {
            original = w;
            minimized = w;
            reproduced = true;
            derandomized = false;
            runs = !runs;
          })

let minimize_all ~lookup ws = List.map (minimize ~lookup) ws
