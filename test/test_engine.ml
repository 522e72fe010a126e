(* Tests for the domain-parallel exploration engine: the determinism
   contract (engine at any job count == the reference sequential loops
   of [Runner_reference]), the memoized setup snapshot (never mutated
   by scenario runs) and the Crashstate snapshot API. *)

open Pm_runtime
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Scenario = Pm_harness.Scenario
module Engine = Pm_harness.Engine
module Registry = Pm_benchmarks.Registry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let toy =
  Program.make ~name:"toy"
    ~setup:(fun () ->
      let a = Pmem.alloc ~align:64 16 in
      Pmem.set_root 0 a)
    ~pre:(fun () ->
      let a = Pmem.get_root 0 in
      Pmem.store ~label:"racy" a 1L;
      Pmem.store ~label:"safe" ~atomic:Px86.Access.Release (a + 8) 2L;
      Pmem.clflush a;
      Pmem.mfence ())
    ~post:(fun () ->
      let a = Pmem.get_root 0 in
      ignore (Pmem.load a);
      ignore (Pmem.load ~atomic:Px86.Access.Acquire (a + 8)))
    ()

let model_check ?options ?jobs p = (Runner.model_check_outcome ?options ?jobs p).Runner.o_report

let random_mode ?options ?jobs ~execs p =
  (Runner.random_mode_outcome ?options ?jobs ~execs p).Runner.o_report

(* ------------------------------------------------------------------ *)
(* Determinism suite: engine jobs=1, jobs=4 and the reference
   sequential path must produce identical dedup'd race reports. *)

let test_model_check_determinism () =
  List.iter
    (fun (p : Program.t) ->
      let seq = Report.to_string (Runner_reference.model_check p) in
      let j1 = Report.to_string (model_check ~jobs:1 p) in
      let j4 = Report.to_string (model_check ~jobs:4 p) in
      check_str (p.Program.name ^ ": jobs=1 == seq") seq j1;
      check_str (p.Program.name ^ ": jobs=4 == seq") seq j4)
    Registry.all

let test_recovery_mc_determinism () =
  List.iter
    (fun (p : Program.t) ->
      let seq = Report.to_string (Runner_reference.model_check_recovery p) in
      let recovery jobs = (Runner.model_check_recovery_outcome ~jobs p).Runner.o_report in
      let j1 = Report.to_string (recovery 1) in
      let j4 = Report.to_string (recovery 4) in
      check_str (p.Program.name ^ ": jobs=1 == seq") seq j1;
      check_str (p.Program.name ^ ": jobs=4 == seq") seq j4)
    [ toy; Pm_benchmarks.Cceh.program ]

let test_random_mode_determinism () =
  List.iter
    (fun (p : Program.t) ->
      let seq = Report.to_string (Runner_reference.random_mode ~execs:5 p) in
      let j1 = Report.to_string (random_mode ~jobs:1 ~execs:5 p) in
      let j4 = Report.to_string (random_mode ~jobs:4 ~execs:5 p) in
      check_str (p.Program.name ^ ": jobs=1 == seq") seq j1;
      check_str (p.Program.name ^ ": jobs=4 == seq") seq j4)
    [ Pm_benchmarks.Memcached.program; Pm_benchmarks.Redis.program;
      Pm_benchmarks.Fast_fair.program ]

(* Random mode is seeded, not stateful: with a fixed seed, two
   consecutive runs in the same process render byte-identical
   reports. *)
let test_random_mode_repeatable () =
  List.iter
    (fun (p : Program.t) ->
      let options = { Runner.default_options with seed = 7 } in
      let r1 = Report.to_string (random_mode ~options ~execs:5 p) in
      let r2 = Report.to_string (random_mode ~options ~execs:5 p) in
      check_str (p.Program.name ^ ": fixed seed, byte-identical reruns") r1 r2)
    [ Pm_benchmarks.Memcached.program; Pm_benchmarks.Redis.program ]

(* Oversubscription and degenerate job counts must not change anything
   (jobs is clamped to the batch size and to >= 1). *)
let test_job_count_clamping () =
  let seq = Report.to_string (Runner_reference.model_check toy) in
  List.iter
    (fun jobs ->
      check_str
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (Report.to_string (model_check ~jobs toy)))
    [ 0; 2; 16 ]

(* What [f] writes to stderr, read back from a temporary file that
   stands in for file descriptor 2 while [f] runs. *)
let capture_stderr f =
  let tmp = Filename.temp_file "yashme-stderr" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  (v, text)

(* A Cut_random strategy embeds a shared mutable Rng: the engine must
   refuse to parallelize it (and still complete) — and say so, loudly:
   the fallback warns on stderr through the observe layer rather than
   degrading silently. *)
let test_cut_random_forces_sequential () =
  let options =
    { Runner.default_options with
      cut = Px86.Machine.Cut_random (Yashme_util.Rng.create 7) }
  in
  let scenarios =
    [ Scenario.of_program ~setup:Scenario.No_setup
        ~plan:Executor.Crash_at_end ~options toy ]
  in
  check "not parallel safe" false (Scenario.parallel_safe (List.hd scenarios));
  Observe.Log.set_quiet false;
  let run, err = capture_stderr (fun () -> Engine.run ~jobs:4 scenarios) in
  check_int "forced to one domain" 1 run.Engine.stats.Engine.jobs;
  check "degradation warned on stderr" true
    (Str.string_match (Str.regexp "yashme: warning: Cut_random") err 0);
  (* jobs=1 was granted, not clamped: no warning. *)
  let _, err_j1 = capture_stderr (fun () -> Engine.run ~jobs:1 scenarios) in
  check_str "no warning when jobs=1 was requested" "" err_j1

(* ------------------------------------------------------------------ *)
(* Snapshot semantics                                                   *)

let test_setup_snapshot_memoized () =
  match Engine.materialize_setup ~options:Runner.default_options toy with
  | Scenario.No_setup | Scenario.Run_setup _ ->
      Alcotest.fail "expected a memoized snapshot for an eager-drain setup"
  | Scenario.Snapshot cs ->
      (* A scenario run must never mutate the shared snapshot. *)
      let fingerprint () = Marshal.to_string cs [] in
      let before = fingerprint () in
      let scenario =
        Scenario.of_program ~setup:(Scenario.Snapshot cs)
          ~plan:(Executor.Crash_before_flush 0)
          ~options:Runner.default_options toy
      in
      let completed = function
        | Engine.Completed c -> c
        | Engine.Faulted _ -> Alcotest.fail "scenario unexpectedly faulted"
      in
      let r1 = completed (Engine.run_scenario scenario) in
      check_str "snapshot unchanged by a scenario run" before (fingerprint ());
      (* And re-running from the same snapshot reproduces the result. *)
      let r2 = completed (Engine.run_scenario scenario) in
      check_int "same race count on re-run" (List.length r1.Engine.races)
        (List.length r2.Engine.races);
      check "snapshot still unchanged" true (before = fingerprint ())

let test_random_drain_setup_not_memoized () =
  let options =
    { Runner.default_options with sb_policy = Px86.Machine.Random_drain 0.5 }
  in
  match Engine.materialize_setup ~options toy with
  | Scenario.Run_setup _ -> ()
  | Scenario.No_setup | Scenario.Snapshot _ ->
      Alcotest.fail "seed-dependent setup must be re-run per scenario"

let test_crashstate_copy_independent () =
  match Engine.run_setup Runner.default_options toy with
  | None -> Alcotest.fail "toy has a setup phase"
  | Some cs ->
      let snap = Px86.Crashstate.copy cs in
      let addr = 8 * Px86.Addr.line_size in
      (* Mutate every mutable component of the copy (the index is
         immutable and shared; test_hotpath checks that deriving from a
         state leaves its answers unchanged)... *)
      Px86.Memimage.write snap.Px86.Crashstate.image ~addr ~size:8
        ~value:0xDEADL;
      Px86.Crashstate.set_heap_break snap 0;
      (* ...and the original must not notice. *)
      Alcotest.(check int64)
        "image unshared" 0L
        (Px86.Memimage.read cs.Px86.Crashstate.image ~addr ~size:8);
      check "heap break unshared" true (cs.Px86.Crashstate.heap_break > 0)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)

let test_engine_stats () =
  let { Runner.o_report = report; o_stats = stats; _ } =
    Runner.model_check_outcome ~jobs:2 toy
  in
  check_int "one scenario per crash point" report.Report.executions
    stats.Engine.scenarios;
  check "explored executions counted" true
    (stats.Engine.executions >= stats.Engine.scenarios);
  check "ops counted" true (stats.Engine.ops > 0);
  check "worker time accumulated" true (stats.Engine.cpu_s >= 0.);
  check "elapsed measured" true (stats.Engine.elapsed_s >= 0.);
  check_int "domains clamped to batch" 2 stats.Engine.jobs;
  (* The timing-free projection is what determinism comparisons use:
     repeated runs agree on it even though cpu_s/elapsed_s differ. *)
  let stats' = (Runner.model_check_outcome ~jobs:2 toy).Runner.o_stats in
  check "structural stats reproducible" true
    (Engine.structural stats = Engine.structural stats')

let test_scenario_results_in_submission_order () =
  let options = Runner.default_options in
  let setup = Engine.materialize_setup ~options toy in
  let plans =
    [ Executor.Crash_before_flush 0; Executor.Crash_before_flush 1;
      Executor.Crash_at_end ]
  in
  let scenarios =
    List.map (fun plan -> Scenario.of_program ~setup ~plan ~options toy) plans
  in
  let a = Engine.run ~jobs:1 scenarios in
  let b = Engine.run ~jobs:3 scenarios in
  (* [Engine.signature] zeroes wall_s, the only field allowed to vary;
     everything else must match field for field, in submission order. *)
  let sig_of run = List.map Engine.signature run.Engine.results in
  check "same per-scenario results in same order" true (sig_of a = sig_of b)

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                      *)

module Finding = Pm_harness.Finding
module Demo = Pm_benchmarks.Demo_faults

let raising =
  Program.make ~name:"raising"
    ~pre:(fun () ->
      let a = Pmem.alloc ~align:64 8 in
      Pmem.store ~label:"pre-fault" a 1L;
      failwith "boom")
    ~post:(fun () -> ())
    ()

(* The acceptance batch: a healthy scenario, a raising one and a
   non-terminating one under a fuel budget.  All three must come back,
   classified, and identically at every job count. *)
let test_fault_isolation_batch () =
  let options = { Runner.default_options with max_ops = Some 400 } in
  let toy_setup = Engine.materialize_setup ~options toy in
  let demo_setup = Engine.materialize_setup ~options Demo.diverge in
  let scenarios =
    [ Scenario.of_program ~setup:toy_setup
        ~plan:(Executor.Crash_before_flush 0) ~options toy;
      Scenario.of_program ~setup:Scenario.No_setup ~plan:Executor.Crash_at_end
        ~options raising;
      Scenario.of_program ~setup:demo_setup ~plan:Executor.Crash_at_end
        ~options Demo.diverge ]
  in
  let classify run =
    check_int "all scenarios come back" 3 (List.length run.Engine.results);
    (match run.Engine.results with
    | [ Engine.Completed c0; Engine.Faulted f; Engine.Completed c2 ] ->
        check "healthy scenario not diverged" false c0.Engine.diverged;
        check "fault in the pre-crash phase" true
          (f.Engine.f_info.Finding.phase = Finding.Pre_crash);
        check_str "fault text preserved" "Failure(\"boom\")"
          f.Engine.f_info.Finding.exn_text;
        check "no crash before the fault" false
          f.Engine.f_info.Finding.crash_fired;
        check "spinner killed by the fuel budget" true c2.Engine.diverged
    | _ -> Alcotest.fail "unexpected result classification");
    check_int "one fault in stats" 1 run.Engine.stats.Engine.faulted;
    check_int "one divergence in stats" 1 run.Engine.stats.Engine.diverged
  in
  let report run =
    Report.to_string
      (Report.dedup ~program:"batch" ~executions:3
         ~faults:(Engine.faults run) ~diverged:(Engine.diverged_count run)
         (Engine.races run))
  in
  let a = Engine.run ~jobs:1 scenarios in
  let b = Engine.run ~jobs:4 scenarios in
  classify a;
  classify b;
  let sig_of run = List.map Engine.signature run.Engine.results in
  check "per-scenario results jobs-invariant" true (sig_of a = sig_of b);
  check_str "report byte-identical jobs=1 vs jobs=4" (report a) (report b);
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  check "contained faults render" true
    (contains (report a) "[contained] 1 scenario fault(s), 1 diverged (budget)")

let test_setup_phase_fault () =
  let options = Runner.default_options in
  let scenario =
    Scenario.make ~label:"bad-setup"
      ~setup:(Scenario.Run_setup (fun () -> failwith "setup exploded"))
      ~pre:(fun () -> ())
      ~post:(fun () -> ())
      ~plan:Executor.Crash_at_end ~options ()
  in
  match Engine.run_scenario scenario with
  | Engine.Completed _ -> Alcotest.fail "setup fault must be captured"
  | Engine.Faulted f ->
      check "classified as a setup fault" true
        (f.Engine.f_info.Finding.phase = Finding.Setup);
      check "not a recovery failure" false
        (Finding.is_recovery_failure f.Engine.f_info)

(* A signature never holds a value [=] cannot compare: two runs of a
   scenario whose exception carries a closure (a fresh one each time)
   have equal signatures. *)
exception Carries of (unit -> unit)

let test_signature_of_closure_fault () =
  let fault () =
    Engine.run_scenario
      (Scenario.make ~label:"closure-fault" ~setup:Scenario.No_setup
         ~pre:(fun () ->
           let n = ref 0 in
           raise (Carries (fun () -> incr n)))
         ~post:ignore ~plan:Executor.Crash_at_end ~options:Runner.default_options ())
  in
  let a = fault () and b = fault () in
  check "the raising scenario faults" true
    (match a with Engine.Faulted _ -> true | Engine.Completed _ -> false);
  check "signatures of closure-carrying faults are equal" true
    (Engine.signature a = Engine.signature b)

let test_fuel_exhaustion_diverges () =
  let options = { Runner.default_options with max_ops = Some 50 } in
  let r =
    Engine.run_phase ~options ~plan:Executor.Run_to_end ~seed:1
      ~exec_id:Engine.pre_exec (fun () ->
        while true do
          Pmem.yield ()
        done)
  in
  check "budget terminates the phase" true
    (r.Executor.outcome = Executor.Diverged)

let test_recovery_failure_witness () =
  let p = Demo.faulty_recovery in
  let r1 = model_check ~jobs:1 p in
  let r4 = model_check ~jobs:4 p in
  check_str "recovery-failure report byte-identical jobs=1 vs jobs=4"
    (Report.to_string r1) (Report.to_string r4);
  check "recovery failure found" true (r1.Report.recovery_failures <> []);
  List.iter
    (fun (rf : Report.recovery_failure) ->
      check "witness carries a real crash" true
        rf.Report.rf_example.Finding.crash_fired;
      check "witness is a recovery-phase fault" true
        (match rf.Report.rf_example.Finding.phase with
        | Finding.Recovery _ -> true
        | Finding.Setup | Finding.Pre_crash | Finding.Observe -> false))
    r1.Report.recovery_failures

let test_fail_fast () =
  let options = Runner.default_options in
  let setup = Engine.materialize_setup ~options toy in
  let scenarios =
    [ Scenario.of_program ~setup:Scenario.No_setup ~plan:Executor.Crash_at_end
        ~options raising;
      Scenario.of_program ~setup ~plan:(Executor.Crash_before_flush 0)
        ~options toy;
      Scenario.of_program ~setup ~plan:Executor.Crash_at_end ~options toy ]
  in
  (* Containment is the default: the whole batch comes back. *)
  let contained = Engine.run ~jobs:1 scenarios in
  check_int "no fail-fast: every result materializes" 3
    (List.length contained.Engine.results);
  (* Fail-fast re-raises the original exception and cancels the rest;
     the cancelled entries are visible as metric ticks. *)
  Observe.Metrics.enable ();
  let before = Observe.Metrics.snapshot () in
  (match Engine.run ~jobs:1 ~fail_fast:true scenarios with
  | _ -> Alcotest.fail "fail-fast must re-raise the scenario fault"
  | exception Failure msg -> check_str "original exception re-raised" "boom" msg);
  let diff = Observe.Metrics.diff before (Observe.Metrics.snapshot ()) in
  Observe.Metrics.disable ();
  check_int "both queued scenarios cancelled" 2
    (Option.value ~default:0 (List.assoc_opt "engine/cancelled" diff))

(* ------------------------------------------------------------------ *)
(* Footprint: what results and records retain                           *)

(* [n] lines of flushed stores, then one unflushed store that the
   recovery reads: one race, whatever [n]. *)
let wide n =
  Program.make ~name:"wide"
    ~pre:(fun () ->
      let a = Pmem.alloc ~align:64 (64 * (n + 1)) in
      Pmem.set_root 0 a;
      for i = 1 to n do
        Pmem.store ~label:"flushed" (a + (64 * i)) (Int64.of_int i);
        Pmem.clflush (a + (64 * i))
      done;
      Pmem.mfence ();
      Pmem.store ~label:"racy" a 1L)
    ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
    ()

(* A completed result keeps its races, and through them their stores,
   but nothing of the detector's records: its size does not grow with
   theirs. *)
let test_result_footprint () =
  let words n =
    match
      Engine.run_scenario
        (Scenario.of_program ~setup:Scenario.No_setup ~plan:Executor.Crash_at_end
           ~options:Runner.default_options
           (wide n))
    with
    | Engine.Completed c ->
        check_int (Printf.sprintf "%d lines: one race" n) 1 (List.length c.Engine.races);
        Obj.reachable_words (Obj.repr (Engine.Completed c))
    | Engine.Faulted _ -> Alcotest.fail "the scenario faulted"
  in
  check_int "result words, 4 lines vs 4,000" (words 4) (words 4_000)

(* A record is bounded by its run: the stores it keeps and its tables
   stay within a fixed multiple of the run's commits plus the lines its
   stores span, on a soak stream of 2,000 client ops per program. *)
let test_record_footprint () =
  let bucket = List.hd Pm_harness.Soak.default_buckets in
  List.iter
    (fun (stream : Pm_harness.Soak.op_stream) ->
      let p = Pm_harness.Soak.program ~stream ~bucket ~ops:2_000 ~seed:7 in
      let commits = ref 0 and top_line = ref 0 in
      let observer =
        { Px86.Observer.nop with
          on_store_commit =
            (fun s ->
              incr commits;
              top_line := max !top_line (Px86.Addr.line s.Px86.Event.addr)) }
      in
      let d = Yashme.Detector.create () in
      let setup =
        Option.map
          (fun f -> (Executor.run ~exec_id:Engine.setup_exec f).Executor.state)
          p.Program.setup
      in
      ignore (Executor.run ~detector:d ?inherited:setup ~observer ~exec_id:Engine.pre_exec p.Program.pre);
      let record = Option.get (Yashme.Detector.record d ~id:Engine.pre_exec) in
      let bound = 40 * (!commits + !top_line + 1) in
      let words = Obj.reachable_words (Obj.repr record) in
      if words > bound then
        Alcotest.failf "%s: record of %d words, over %d (%d commits, top line %d)"
          stream.Pm_harness.Soak.os_name words bound !commits !top_line)
    Registry.soak_streams

let () =
  Alcotest.run "engine"
    [
      ( "determinism",
        [
          Alcotest.test_case "model-check: all registry benchmarks" `Slow
            test_model_check_determinism;
          Alcotest.test_case "recovery model-check" `Slow
            test_recovery_mc_determinism;
          Alcotest.test_case "random mode" `Quick test_random_mode_determinism;
          Alcotest.test_case "random mode: fixed seed repeatable" `Quick
            test_random_mode_repeatable;
          Alcotest.test_case "job-count clamping" `Quick test_job_count_clamping;
          Alcotest.test_case "Cut_random forces sequential" `Quick
            test_cut_random_forces_sequential;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "memoized setup never mutated" `Quick
            test_setup_snapshot_memoized;
          Alcotest.test_case "random-drain setup re-run" `Quick
            test_random_drain_setup_not_memoized;
          Alcotest.test_case "Crashstate.copy independence" `Quick
            test_crashstate_copy_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "engine stats" `Quick test_engine_stats;
          Alcotest.test_case "submission-order merge" `Quick
            test_scenario_results_in_submission_order;
        ] );
      ( "fault-isolation",
        [
          Alcotest.test_case "mixed batch survives faults" `Quick
            test_fault_isolation_batch;
          Alcotest.test_case "setup-phase fault captured" `Quick
            test_setup_phase_fault;
          Alcotest.test_case "signature of a closure-carrying fault" `Quick
            test_signature_of_closure_fault;
          Alcotest.test_case "fuel budget diverges" `Quick
            test_fuel_exhaustion_diverges;
          Alcotest.test_case "recovery-failure witness" `Quick
            test_recovery_failure_witness;
          Alcotest.test_case "fail-fast cancels and re-raises" `Quick
            test_fail_fast;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "results keep no record" `Quick test_result_footprint;
          Alcotest.test_case "records bounded by their run" `Quick test_record_footprint;
        ] );
    ]
