module Executor = Pm_runtime.Executor
module Rng = Yashme_util.Rng

type options = Scenario.options = {
  mode : Yashme.Detector.mode;
  eadr : bool;
  coherence : bool;
  check_candidates : bool;
  sched : Executor.sched_policy;
  sb_policy : Px86.Machine.sb_policy;
  variant : Px86.Variant.t;
  cut : Px86.Machine.cut_strategy;
  seed : int;
  max_ops : int option;
  max_wall_s : float option;
}

let default_options = Scenario.default_options

let pre_exec = Engine.pre_exec
let post_exec = Engine.post_exec

let run_setup = Engine.run_setup

(* The setup state a scenario of [setup] starts from: a memoized
   snapshot is re-hydrated instead of re-running the setup. *)
let hydrate ~options setup (p : Program.t) =
  match setup with
  | Scenario.No_setup -> None
  | Scenario.Snapshot cs -> Some (Px86.Crashstate.copy cs)
  | Scenario.Run_setup _ -> run_setup options p

(* The flush points of the pre-crash phase run on [inherited]. *)
let flush_points ~options ?inherited (p : Program.t) =
  (Engine.run_phase ?inherited ~options ~plan:Executor.Run_to_end
     ~seed:options.seed ~exec_id:pre_exec p.Program.pre)
    .Executor.flush_points

let count_flush_points ?(options = default_options) p =
  flush_points ~options ?inherited:(run_setup options p) p

let count_points ~options ~setup p =
  flush_points ~options ?inherited:(hydrate ~options setup p) p

let run_once ?(options = default_options) ~plan (p : Program.t) =
  let inherited = run_setup options p in
  let detector =
    Yashme.Detector.create ~mode:options.mode ~eadr:options.eadr
      ~coherence:options.coherence ()
  in
  let pre_result =
    Engine.run_phase ~detector ?inherited ~options ~plan ~seed:options.seed
      ~exec_id:pre_exec p.Program.pre
  in
  let post_result =
    if Engine.crash_fired ~plan pre_result then
      Some
        (Engine.run_recovery ~detector ~options
           ~inherited:pre_result.Executor.state ~seed:(options.seed + 1)
           ~exec_id:post_exec p.Program.post)
    else None
  in
  (detector, pre_result, post_result)

let run_once_traced ?(options = default_options) ~plan (p : Program.t) =
  let inherited = run_setup options p in
  let detector =
    Yashme.Detector.create ~mode:options.mode ~eadr:options.eadr
      ~coherence:options.coherence ()
  in
  let trace, trace_observer = Px86.Trace.recorder () in
  let pre_result =
    Engine.run_phase ~detector ?inherited ~observer:trace_observer ~options ~plan
      ~seed:options.seed ~exec_id:pre_exec p.Program.pre
  in
  if Engine.crash_fired ~plan pre_result then begin
    Yashme.Detector.log_calls detector;
    ignore
      (Engine.run_recovery ~detector ~options
         ~inherited:pre_result.Executor.state ~seed:(options.seed + 1)
         ~exec_id:post_exec p.Program.post)
  end;
  (detector, trace)

(* ------------------------------------------------------------------ *)
(* Invariant-oracle reference preparation                               *)

let m_oracle_invariants = Observe.Metrics.counter "oracle/invariants"

type oracle_prep = {
  op_invariants : Pm_oracle.Invariant.t list;
  op_ctx : Scenario.oracle;
}

(* Build the oracle context for [p]: run the crash-free reference
   pipeline (recovery over a clean workload-free image for the init
   observation; traced workload to completion plus recovery for the
   final observation), infer invariants from the workload trace unless
   a pre-inferred set is supplied, and close the checker over the
   resulting reference.  [None] when the program has no [observe] hook.
   Runs detector-free — reference executions contribute nothing to race
   reports — and raises on reference faults (callers guard, e.g. with
   {!guarded_probe}). *)
let prepare_oracle ?(options = default_options) ?invariants (p : Program.t) =
  match p.Program.observe with
  | None -> None
  | Some observe ->
      let setup = Engine.materialize_setup ~options p in
      let hydrate () = hydrate ~options setup p in
      let observe_on st =
        let out = ref [] in
        ignore
          (Engine.run_phase ~inherited:st ~options ~plan:Executor.Run_to_end
             ~seed:(options.seed + 3)
             ~exec_id:(post_exec + 2)
             (fun () -> out := observe ()));
        !out
      in
      (* Init: recovery over a cleanly-shut-down image the workload
         never touched. *)
      let r_init =
        let r =
          Engine.run_phase ?inherited:(hydrate ()) ~options
            ~plan:Executor.Run_to_end ~seed:(options.seed + 1)
            ~exec_id:post_exec p.Program.post
        in
        observe_on r.Executor.state
      in
      (* Final: the workload runs to clean completion (traced), then
         recovery. *)
      let trace, trace_observer = Px86.Trace.recorder () in
      let pre_r =
        Engine.run_phase ?inherited:(hydrate ()) ~observer:trace_observer
          ~options ~plan:Executor.Run_to_end ~seed:options.seed
          ~exec_id:pre_exec p.Program.pre
      in
      let post_r =
        Engine.run_recovery ~options ~inherited:pre_r.Executor.state
          ~seed:(options.seed + 1) ~exec_id:post_exec p.Program.post
      in
      let r_final = observe_on post_r.Executor.state in
      let r_invariants =
        match invariants with
        | Some invs -> List.sort_uniq Pm_oracle.Invariant.compare invs
        | None -> Pm_oracle.Invariant.infer (Px86.Trace.entries trace)
      in
      List.iter
        (fun _ -> Observe.Metrics.incr m_oracle_invariants)
        r_invariants;
      let reference = { Pm_oracle.Check.r_init; r_final; r_invariants } in
      Some
        {
          op_invariants = r_invariants;
          op_ctx =
            {
              Scenario.oc_observe = observe;
              oc_check =
                (fun ~observed ->
                  List.map
                    (fun (v : Pm_oracle.Check.violation) ->
                      (v.Pm_oracle.Check.v_key, v.Pm_oracle.Check.v_detail))
                    (Pm_oracle.Check.check reference ~observed));
            };
        }

let oracle_invariant_labels prep =
  List.map Pm_oracle.Invariant.label prep.op_invariants

(* ------------------------------------------------------------------ *)
(* Model checking: one scenario per flush point (plus crash-at-end),    *)
(* explored by the engine.                                              *)

let model_check_plans points =
  List.init points (fun n -> Executor.Crash_before_flush n)
  @ [ Executor.Crash_at_end ]

(* ------------------------------------------------------------------ *)
(* Driver-level fault containment                                      *)

(* The drivers probe a program (materialize the setup, count flush
   points) before any sandboxed scenario runs.  A program whose setup
   raises would otherwise take the whole driver down, so the probes are
   guarded too: a probe fault yields a report holding that single
   fault and no scenarios. *)
let guarded_probe ~(options : options) (p : Program.t) f =
  match f () with
  | v -> Ok v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Error
        {
          Finding.label = p.Program.name;
          phase = Finding.Setup;
          exn_text = Printexc.to_string e;
          backtrace = Printexc.raw_backtrace_to_string bt;
          plan = "probe";
          post_plan = "probe";
          seed = options.seed;
          crash_fired = false;
        }

let empty_stats ~jobs =
  {
    Engine.jobs;
    scenarios = 0;
    completed = 0;
    faulted = 0;
    diverged = 0;
    cancelled = 0;
    executions = 0;
    ops = 0;
    cpu_s = 0.;
    elapsed_s = 0.;
  }

(* Build the per-program report of an engine run: deduplicated races,
   recovery-failure witnesses, consistency violations and
   contained-fault counts, all derived from the submission-ordered
   result list. *)
let report_of_run ~program ~(options : options) ~executions ?consistency
    ?oracle run =
  let r =
    Report.dedup ~program
      ~variant:(Px86.Variant.label options.variant)
      ~executions ~faults:(Engine.faults run) ?consistency
      ~diverged:(Engine.diverged_count run)
      (Engine.races run)
  in
  match oracle with
  | None -> r
  | Some invariants -> Report.with_oracle r invariants

(* ------------------------------------------------------------------ *)
(* Outcomes: report + stats + the scenario/result pairs behind them    *)

type evidence = Full | Faults_only

type outcome = {
  o_report : Report.t;
  o_stats : Engine.stats;
  o_pairs : (Scenario.t * Engine.scenario_result * evidence) list;
}

let probe_outcome ~program ~(options : options) ~jobs fault =
  {
    o_report =
      Report.dedup ~program
        ~variant:(Px86.Variant.label options.variant)
        ~executions:0 ~faults:[ fault ] [];
    o_stats = empty_stats ~jobs;
    o_pairs = [];
  }

(* Zip a batch with its submission-ordered results, tagging every pair
   [Full]: both its races and its fault (if any) reach the report. *)
let full_pairs scenarios (run : Engine.run_result) =
  List.map2 (fun s r -> (s, r, Full)) scenarios run.Engine.results

let consistencies (s : Scenario.t) (c : Engine.completed) =
  List.map
    (fun (key, detail) ->
      {
        Finding.c_label = s.Scenario.label;
        c_key = key;
        c_detail = detail;
        c_plan = Executor.plan_label s.Scenario.plan;
        c_post_plan = Executor.plan_label s.Scenario.post_plan;
        c_seed = s.Scenario.options.Scenario.seed;
      })
    c.Engine.violations

(* Consistency findings of a run's [Full] pairs, in submission order —
   mirrors exactly which violations the corpus extractor will emit. *)
let consistencies_of_pairs pairs =
  List.concat_map
    (fun ((s : Scenario.t), (r : Engine.scenario_result), ev) ->
      match (r, ev) with
      | Engine.Completed c, Full -> consistencies s c
      | (Engine.Completed _ | Engine.Faulted _), _ -> [])
    pairs

let model_check_outcome ?(options = default_options) ?(jobs = 1)
    ?(fail_fast = false) ?(oracle = false) ?invariants (p : Program.t) =
  match
    guarded_probe ~options p (fun () ->
        let setup = Engine.materialize_setup ~options p in
        let prep =
          if oracle then prepare_oracle ~options ?invariants p else None
        in
        (setup, count_points ~options ~setup p, prep))
  with
  | Error fault -> probe_outcome ~program:p.Program.name ~options ~jobs fault
  | Ok (setup, points, prep) ->
      let octx = Option.map (fun pr -> pr.op_ctx) prep in
      let scenarios =
        List.map
          (fun plan -> Scenario.of_program ?oracle:octx ~setup ~plan ~options p)
          (model_check_plans points)
      in
      let run = Engine.run ~jobs ~fail_fast scenarios in
      let pairs = full_pairs scenarios run in
      {
        o_report =
          report_of_run ~program:p.Program.name ~options
            ~executions:(List.length scenarios)
            ~consistency:(consistencies_of_pairs pairs)
            ?oracle:(Option.map oracle_invariant_labels prep)
            run;
        o_stats = run.Engine.stats;
        o_pairs = pairs;
      }

(* ------------------------------------------------------------------ *)
(* Recovery model checking: two-crash failure scenarios (section 6).    *)

(* Model-check the recovery procedure itself: for each pre-crash point,
   crash the recovery at each of ITS flush points and run a second
   recovery — the two-crash failure scenarios of section 6 ("a
   persistency race in the recovery procedure would require two
   crashes").  Wave 1 probes each pre-crash point for the recovery's
   own flush points; wave 2 explores the (pre point x recovery point)
   grid.  Both waves are engine batches. *)
let model_check_recovery_outcome ?(options = default_options) ?(jobs = 1)
    ?(fail_fast = false) ?(oracle = false) (p : Program.t) =
  let program = p.Program.name ^ "+recovery" in
  match
    guarded_probe ~options p (fun () ->
        let setup = Engine.materialize_setup ~options p in
        let prep = if oracle then prepare_oracle ~options p else None in
        (setup, count_points ~options ~setup p, prep))
  with
  | Error fault -> probe_outcome ~program ~options ~jobs fault
  | Ok (setup, points, prep) ->
      let octx = Option.map (fun pr -> pr.op_ctx) prep in
      let pre_plans = model_check_plans points in
      let probe_scenarios =
        List.map (fun plan -> Scenario.of_program ~setup ~plan ~options p) pre_plans
      in
      let probes = Engine.run ~jobs ~fail_fast probe_scenarios in
      (* A probe that faulted contributes no grid scenarios; its fault
         still reaches the report below. *)
      let scenarios =
        List.concat_map
          (fun (plan, probe) ->
            match (probe : Engine.scenario_result) with
            | Engine.Faulted _ -> []
            | Engine.Completed c ->
                if not c.Engine.chain_crashed then []
                else
                  let post_points =
                    Option.value ~default:0 c.Engine.post_flush_points
                  in
                  List.init post_points (fun post_n ->
                      Scenario.of_program ?oracle:octx ~setup ~plan
                        ~post_plan:(Executor.Crash_before_flush post_n)
                        ~options p))
          (List.combine pre_plans probes.Engine.results)
      in
      let run = Engine.run ~jobs ~fail_fast scenarios in
      let keep (c : Engine.completed) = c.Engine.chain_crashed in
      let executions =
        List.length
          (List.filter
             (function
               | Engine.Completed c -> keep c
               | Engine.Faulted _ -> false)
             run.Engine.results)
      in
      (* Evidence tags mirror the report exactly: probe races never
         reach it (the probe wave only sizes the grid), probe faults
         do; grid races only count when the whole chain crashed. *)
      let probe_pairs =
        List.map2
          (fun s r -> (s, r, Faults_only))
          probe_scenarios probes.Engine.results
      in
      let grid_pairs =
        List.map2
          (fun s (r : Engine.scenario_result) ->
            match r with
            | Engine.Completed c when not (keep c) -> (s, r, Faults_only)
            | Engine.Completed _ | Engine.Faulted _ -> (s, r, Full))
          scenarios run.Engine.results
      in
      (* Probe-wave faults and divergences ride along, in probe-then-grid
         submission order. *)
      let report =
        Report.dedup ~program
          ~variant:(Px86.Variant.label options.variant)
          ~executions
          ~faults:(Engine.faults probes @ Engine.faults run)
          ~consistency:(consistencies_of_pairs grid_pairs)
          ~diverged:(Engine.diverged_count probes + Engine.diverged_count run)
          (Engine.races ~keep run)
      in
      let report =
        match prep with
        | None -> report
        | Some pr -> Report.with_oracle report (oracle_invariant_labels pr)
      in
      {
        o_report = report;
        o_stats = run.Engine.stats;
        o_pairs = probe_pairs @ grid_pairs;
      }

(* ------------------------------------------------------------------ *)
(* Random mode                                                          *)

let random_plan rng points =
  let n = Rng.int rng (points + 1) in
  if n = points then Executor.Crash_at_end else Executor.Crash_before_flush n

let program_seed (p : Program.t) seed =
  (* Decorrelate programs sharing a numeric seed. *)
  Hashtbl.hash (p.Program.name, seed)

(* Per-execution options and crash plan of random mode.  Plans are
   drawn sequentially from one generator, so they are materialized up
   front (in draw order) before the engine spreads the executions over
   domains. *)
let random_scenarios ~options ~execs (p : Program.t) =
  let rng = Rng.create options.seed in
  let setup = Engine.materialize_setup ~options p in
  let points = max 1 (count_points ~options ~setup p) in
  let rec build i acc =
    if i >= execs then List.rev acc
    else
      let seed = options.seed + (7919 * (i + 1)) in
      let options = { options with seed; sched = Executor.Random_sched } in
      let plan = random_plan rng points in
      build (i + 1) (Scenario.of_program ~setup ~plan ~options p :: acc)
  in
  build 0 []

let random_mode_outcome ?(options = default_options) ?(jobs = 1)
    ?(fail_fast = false) ?(oracle = false) ~execs (p : Program.t) =
  let options = { options with seed = program_seed p options.seed } in
  match
    guarded_probe ~options p (fun () ->
        let prep = if oracle then prepare_oracle ~options p else None in
        (random_scenarios ~options ~execs p, prep))
  with
  | Error fault -> probe_outcome ~program:p.Program.name ~options ~jobs fault
  | Ok (scenarios, prep) ->
      let scenarios =
        match prep with
        | None -> scenarios
        | Some pr ->
            List.map
              (fun (s : Scenario.t) -> { s with Scenario.oracle = Some pr.op_ctx })
              scenarios
      in
      let run = Engine.run ~jobs ~fail_fast scenarios in
      let pairs = full_pairs scenarios run in
      {
        o_report =
          report_of_run ~program:p.Program.name ~options ~executions:execs
            ~consistency:(consistencies_of_pairs pairs)
            ?oracle:(Option.map oracle_invariant_labels prep)
            run;
        o_stats = run.Engine.stats;
        o_pairs = pairs;
      }

let single_random ?(options = default_options) (p : Program.t) =
  (random_mode_outcome ~options ~execs:1 p).o_report

(* Wall-clock, not [Sys.time]: CPU time misreports parallel runs and
   undercounts anything that blocks. *)
let time_without_detector ?(options = default_options) (p : Program.t) =
  let t0 = Unix.gettimeofday () in
  let options = { options with seed = program_seed p options.seed } in
  let rng = Rng.create options.seed in
  let points = max 1 (count_flush_points ~options p) in
  let plan = random_plan rng points in
  let inherited = run_setup options p in
  let options = { options with sched = Executor.Random_sched } in
  let pre_result =
    Engine.run_phase ?inherited ~options ~plan ~seed:(options.seed + 7919)
      ~exec_id:pre_exec p.Program.pre
  in
  if pre_result.Executor.outcome = Executor.Crashed then
    ignore
      (Engine.run_recovery ~options ~inherited:pre_result.Executor.state
         ~seed:(options.seed + 7920) ~exec_id:post_exec p.Program.post);
  Unix.gettimeofday () -. t0
