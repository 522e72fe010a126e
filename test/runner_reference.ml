(* Reference sequential drivers: the plan loops the engine replaced,
   one detector and one fresh setup run per scenario.  The determinism
   suite checks that the engine's reports equal theirs at every job
   count; they are also the simplest oracle for debugging the engine.
   [random_plan] and [program_seed] copy {!Pm_harness.Runner}'s, so the
   random-mode reference draws the same plans. *)

module Runner = Pm_harness.Runner
module Engine = Pm_harness.Engine
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Executor = Pm_runtime.Executor
module Rng = Yashme_util.Rng

let model_check_plans points =
  List.init points (fun n -> Executor.Crash_before_flush n) @ [ Executor.Crash_at_end ]

let report ~program ~(options : Runner.options) ~executions races =
  Report.dedup ~program ~variant:(Px86.Variant.label options.variant) ~executions races

let races_of_run ~options ~plan p =
  let detector, _, _ = Runner.run_once ~options ~plan p in
  Yashme.Detector.races detector

let model_check ?(options = Runner.default_options) (p : Program.t) =
  let plans = model_check_plans (Runner.count_flush_points ~options p) in
  report ~program:p.Program.name ~options ~executions:(List.length plans)
    (List.concat_map (fun plan -> races_of_run ~options ~plan p) plans)

let model_check_recovery ?(options = Runner.default_options) (p : Program.t) =
  let pre_plans = model_check_plans (Runner.count_flush_points ~options p) in
  let races = ref [] in
  let executions = ref 0 in
  List.iter
    (fun pre_plan ->
      (* Count the recovery's own flush points for this pre-crash state. *)
      let inherited = Engine.run_setup options p in
      let probe_detector = Yashme.Detector.create ~mode:options.mode () in
      let pre_result =
        Engine.run_phase ~detector:probe_detector ?inherited ~options ~plan:pre_plan
          ~seed:options.seed ~exec_id:Engine.pre_exec p.Program.pre
      in
      if Engine.crash_fired ~plan:pre_plan pre_result then begin
        let post_probe =
          Engine.run_recovery ~detector:probe_detector ~options
            ~inherited:pre_result.Executor.state ~seed:(options.seed + 1)
            ~exec_id:Engine.post_exec p.Program.post
        in
        (* Re-run with a crash inside the recovery at each of its
           points, followed by a second recovery. *)
        for post_n = 0 to post_probe.Executor.flush_points - 1 do
          let inherited = Engine.run_setup options p in
          let detector =
            Yashme.Detector.create ~mode:options.mode ~eadr:options.eadr
              ~coherence:options.coherence ()
          in
          let r1 =
            Engine.run_phase ~detector ?inherited ~options ~plan:pre_plan
              ~seed:options.seed ~exec_id:Engine.pre_exec p.Program.pre
          in
          let r2 =
            Engine.run_phase ~detector ~inherited:r1.Executor.state ~options
              ~plan:(Executor.Crash_before_flush post_n) ~seed:(options.seed + 1)
              ~exec_id:Engine.post_exec p.Program.post
          in
          if r2.Executor.outcome = Executor.Crashed then begin
            ignore
              (Engine.run_recovery ~detector ~options ~inherited:r2.Executor.state
                 ~seed:(options.seed + 2) ~exec_id:(Engine.post_exec + 1) p.Program.post);
            incr executions;
            races := Yashme.Detector.races detector @ !races
          end
        done
      end)
    pre_plans;
  report ~program:(p.Program.name ^ "+recovery") ~options ~executions:!executions !races

let random_plan rng points =
  let n = Rng.int rng (points + 1) in
  if n = points then Executor.Crash_at_end else Executor.Crash_before_flush n

let program_seed (p : Program.t) seed = Hashtbl.hash (p.Program.name, seed)

let random_mode ?(options = Runner.default_options) ~execs (p : Program.t) =
  let options = { options with seed = program_seed p options.seed } in
  let rng = Rng.create options.seed in
  let points = max 1 (Runner.count_flush_points ~options p) in
  let races =
    List.concat_map
      (fun i ->
        let seed = options.seed + (7919 * (i + 1)) in
        let options = { options with seed; sched = Executor.Random_sched } in
        races_of_run ~options ~plan:(random_plan rng points) p)
      (List.init execs Fun.id)
  in
  report ~program:p.Program.name ~options ~executions:execs races
