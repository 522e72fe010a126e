(* Tests for the exploration telemetry subsystem: crash-space coverage
   accounting (jobs-invariance, ambient attribution, rendering), live
   progress streams and telemetry sessions.  The
   determinism contract is asserted end to end: coverage
   snapshots are byte-identical across --jobs counts, and a race
   report is byte-identical with all telemetry on vs off. *)

module Coverage = Observe.Coverage
module Progress = Observe.Progress
module Metrics = Observe.Metrics
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Engine = Pm_harness.Engine
module Json = Yashme_util.Json

open Pm_runtime

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

(* Every test leaves the global observe state as it found it. *)
let quiesce () =
  Metrics.disable ();
  Metrics.reset ();
  ignore (Progress.stop ())

(* The coverage snapshot in its exported JSONL form: the byte string
   the jobs-invariance contract quantifies over. *)
let coverage_jsonl () =
  String.concat "\n"
    (List.map (fun s -> Json.encode_obj (Coverage.fields s)) (Coverage.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Coverage                                                             *)

(* The per-program cells the coverage view reads (find-or-create: the
   same cells the engine, the machine and the detector fill). *)
let scenarios = Metrics.tally "coverage/scenarios"
let plans = Metrics.set "coverage/plan_indices"
let crashes = Metrics.set "coverage/crash_points"
let lines = Metrics.set "coverage/lines"

let expansions =
  Metrics.counter ~center:"detector/prefix_expansion" ~per_program:true
    "detector/prefix_expansions"

let pruned_coherence = Metrics.counter ~per_program:true "detector/pruned_coherence"

let test_coverage_disabled_is_noop () =
  quiesce ();
  Metrics.with_program "p" (fun () ->
      Metrics.incr scenarios;
      Metrics.mark plans 0;
      Metrics.mark crashes 0);
  check_int "nothing recorded while disabled" 0
    (List.length (Coverage.snapshot ()));
  quiesce ()

let test_coverage_requires_ambient_program () =
  quiesce ();
  Metrics.enable ();
  (* outside with_program: dropped *)
  Metrics.incr scenarios;
  Metrics.mark plans 3;
  Metrics.mark lines 1;
  check_int "hooks without ambient program are dropped" 0
    (List.length (Coverage.snapshot ()));
  quiesce ()

let test_coverage_accumulates_and_merges () =
  quiesce ();
  Metrics.enable ();
  (* Same program from two domains: counters sum, index sets union. *)
  let work lo =
    Metrics.with_program "prog" (fun () ->
        for i = lo to lo + 2 do
          Metrics.incr scenarios;
          Metrics.mark plans i;
          Metrics.mark crashes i;
          Metrics.incr expansions;
          Metrics.incr pruned_coherence;
          Metrics.mark lines (i mod 2)
        done)
  in
  let d = Domain.spawn (fun () -> work 3) in
  work 0;
  Domain.join d;
  (match Coverage.find "prog" with
  | None -> Alcotest.fail "program not in snapshot"
  | Some s ->
      check_int "scenarios sum" 6 s.Coverage.scenarios;
      Alcotest.(check (list int))
        "plan indices union" [ 0; 1; 2; 3; 4; 5 ] s.Coverage.plan_indices;
      Alcotest.(check (list int))
        "crash points union" [ 0; 1; 2; 3; 4; 5 ] s.Coverage.crash_points;
      check_int "expansions sum" 6 s.Coverage.prefix_expansions;
      check_int "pruned coherence sum" 6 s.Coverage.pruned_coherence;
      check_int "pruned persisted zero" 0 s.Coverage.pruned_persisted;
      check_int "lines deduplicated" 2 s.Coverage.lines_materialized);
  quiesce ()

let test_coverage_ambient_restored_on_exception () =
  quiesce ();
  Metrics.enable ();
  (try
     Metrics.with_program "outer" (fun () ->
         try Metrics.with_program "inner" (fun () -> failwith "boom")
         with Failure _ ->
           (* ambient must be back to "outer" here *)
           Metrics.incr scenarios)
   with Failure _ -> ());
  (match Coverage.find "outer" with
  | Some s -> check_int "attributed to restored ambient" 1 s.Coverage.scenarios
  | None -> Alcotest.fail "outer not recorded");
  check "inner recorded nothing" true (Coverage.find "inner" = None);
  quiesce ()

(* The same program under two model variants accumulates into separate
   buckets, and the snapshot names each bucket's variant. *)
let test_coverage_per_variant () =
  quiesce ();
  Metrics.enable ();
  Metrics.with_program "prog" (fun () -> Metrics.incr scenarios);
  Metrics.with_program ~variant:"fence-nop" "prog" (fun () ->
      Metrics.incr scenarios;
      Metrics.incr scenarios);
  (match Coverage.find "prog" with
  | Some s ->
      check_int "default bucket isolated" 1 s.Coverage.scenarios;
      check_str "default bucket label" Metrics.default_variant
        s.Coverage.variant
  | None -> Alcotest.fail "default bucket missing");
  (match Coverage.find ~variant:"fence-nop" "prog" with
  | Some s -> check_int "variant bucket isolated" 2 s.Coverage.scenarios
  | None -> Alcotest.fail "variant bucket missing");
  check "fields carry the variant" true
    (List.exists
       (fun s -> List.assoc "variant" (Coverage.fields s) = `S "fence-nop")
       (Coverage.snapshot ()));
  quiesce ()

let test_indices_label () =
  check_str "empty" "-" (Coverage.indices_label []);
  check_str "singleton" "7" (Coverage.indices_label [ 7 ]);
  check_str "range compaction" "0-2,5"
    (Coverage.indices_label [ 0; 1; 2; 5 ]);
  check_str "crash-at-end pseudo-index" "0-1,end"
    (Coverage.indices_label [ -1; 0; 1 ]);
  check_str "only end" "end" (Coverage.indices_label [ -1 ])

let test_coverage_jobs_invariant () =
  quiesce ();
  Metrics.enable ();
  ignore (Runner.model_check_outcome ~jobs:1 toy);
  let j1 = coverage_jsonl () in
  Metrics.reset ();
  ignore (Runner.model_check_outcome ~jobs:4 toy);
  let j4 = coverage_jsonl () in
  check "toy explored something" true (String.length j1 > 0);
  check_str "coverage byte-identical for jobs=1 vs jobs=4" j1 j4;
  quiesce ()

let test_coverage_counts_match_engine () =
  quiesce ();
  Metrics.enable ();
  let o = Runner.model_check_outcome ~jobs:2 toy in
  (match Coverage.find "toy" with
  | None -> Alcotest.fail "toy not in coverage snapshot"
  | Some s ->
      check_int "one coverage scenario per engine scenario"
        o.Runner.o_stats.Engine.scenarios s.Coverage.scenarios;
      (* model checking exercises every flush point plus crash-at-end:
         plan indices 0..n-1 and the -1 pseudo-index *)
      check_int "plan indices = scenarios"
        o.Runner.o_stats.Engine.scenarios
        (List.length s.Coverage.plan_indices);
      check "crash-at-end exercised" true
        (List.mem (-1) s.Coverage.plan_indices);
      check "every plan fired its crash" true
        (s.Coverage.crash_points = s.Coverage.plan_indices);
      check "crashes materialized lines" true
        (s.Coverage.lines_materialized > 0));
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Report byte-identity: all telemetry on vs off                        *)

let test_report_identical_with_telemetry_on () =
  quiesce ();
  let plain =
    Report.to_string (Runner.model_check_outcome ~jobs:2 toy).Runner.o_report
  in
  let tmp = Filename.temp_file "yashme_progress" ".jsonl" in
  Metrics.enable ();
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  let loud =
    Report.to_string (Runner.model_check_outcome ~jobs:2 toy).Runner.o_report
  in
  ignore (Progress.stop ());
  Sys.remove tmp;
  check_str "report byte-identical with telemetry on" plain loud;
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Progress                                                             *)

let test_progress_inactive_is_noop () =
  quiesce ();
  Progress.tick ~races:3 ~faulted:true ();
  check_int "stop while inactive reports zero emissions" 0 (Progress.stop ())

let test_progress_jsonl_stream () =
  quiesce ();
  let tmp = Filename.temp_file "yashme_progress" ".jsonl" in
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Progress.batch 3;
  Progress.tick ~races:1 ~faulted:false ();
  Progress.tick ~races:0 ~faulted:true ();
  Progress.tick ~races:2 ~faulted:false ();
  let emitted = Progress.stop () in
  check "at least the final emission" true (emitted >= 1);
  (match Json.load_lines ~what:"progress stream" tmp Json.parse with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("progress stream not well-formed JSONL: " ^ e));
  let ic = open_in tmp in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  check_int "one line per emission" emitted (List.length !lines);
  (match Json.decode_obj (List.hd !lines) with
  | Error e -> Alcotest.fail e
  | Ok fields ->
      check "final line: done = 3" true
        (List.assoc "done" fields = `I 3);
      check "final line: total = 3" true
        (List.assoc "total" fields = `I 3);
      check "final line: races = 3" true
        (List.assoc "races" fields = `I 3);
      check "final line: faults = 1" true
        (List.assoc "faults" fields = `I 1));
  Sys.remove tmp;
  quiesce ()

let test_progress_engine_ticks () =
  quiesce ();
  let tmp = Filename.temp_file "yashme_progress" ".jsonl" in
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  let o = Runner.model_check_outcome ~jobs:2 toy in
  ignore (Progress.stop ());
  let ic = open_in tmp in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> close_in ic);
  (match Json.decode_obj !last with
  | Error e -> Alcotest.fail e
  | Ok fields ->
      let scenarios = o.Runner.o_stats.Engine.scenarios in
      check "engine announced the batch" true
        (List.assoc "total" fields = `I scenarios);
      check "every scenario ticked" true
        (List.assoc "done" fields = `I scenarios));
  Sys.remove tmp;
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Sessions (Pm_corpus.Telemetry)                                       *)

module Telemetry = Pm_corpus.Telemetry

let temp_dir () =
  let d = Filename.temp_file "yashme_session" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let remove_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Sys.rmdir d

let no_temporary d =
  not
    (Array.exists
       (fun f -> Str.string_match (Str.regexp ".*\\.tmp\\.") f 0)
       (Sys.readdir d))

(* A run that raises out of the session still commits the progress
   stream with its final line, leaves no temporary behind and disarms
   what it armed; the exception reaches the caller unchanged. *)
let test_session_closes_on_exception () =
  quiesce ();
  let d = temp_dir () in
  let progress = Filename.concat d "progress.jsonl" in
  let cfg =
    { Telemetry.off with quiet = true; metrics = true; progress_out = Some progress }
  in
  (match
     Telemetry.with_session cfg (fun () ->
         ignore (Runner.model_check_outcome ~jobs:2 toy);
         raise Exit)
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Exit -> ());
  check "progress committed" true (Sys.file_exists progress);
  check "no temporary left" true (no_temporary d);
  check "progress lints" true
    (Result.is_ok (Json.load_lines ~what:"progress stream" progress Json.parse));
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin progress In_channel.input_all)
  in
  check "final summary line" true
    (List.exists
       (fun l -> Str.string_match (Str.regexp ".*\"per_domain\"") l 0)
       lines);
  check "metrics disarmed" false (Metrics.is_enabled ());
  remove_dir d;
  quiesce ()

(* A progress stream that cannot be committed (the body removes its
   directory) does not mask the body's exception, and the registry is
   disarmed all the same.  When the body returned, the commit error
   itself reaches the caller. *)
let test_session_uncommittable_progress () =
  quiesce ();
  let d = temp_dir () in
  let cfg =
    { Telemetry.off with
      quiet = true; metrics = true;
      progress_out = Some (Filename.concat d "progress.jsonl") }
  in
  let vanish () = remove_dir d in
  (match
     Telemetry.with_session cfg (fun () ->
         vanish ();
         raise Exit)
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Exit -> ()
  | exception e -> Alcotest.failf "body's Exit masked by %s" (Printexc.to_string e));
  check "metrics disarmed" false (Metrics.is_enabled ());
  Sys.mkdir d 0o755;
  (match Telemetry.with_session cfg vanish with
  | () -> Alcotest.fail "the commit error was swallowed"
  | exception Sys_error _ -> ());
  check "metrics disarmed after a normal body" false (Metrics.is_enabled ());
  quiesce ()

(* Every flag that shows or collects metrics, coverage or attribution
   (--ledger collects without showing) arms the one registry; closing
   disarms it. *)
let test_session_show_vs_collect () =
  quiesce ();
  let inside cfg = Telemetry.with_session cfg Metrics.is_enabled in
  let quiet = { Telemetry.off with quiet = true } in
  check "off arms nothing" false (inside quiet);
  List.iter
    (fun (flag, cfg) -> check (flag ^ " arms the registry") true (inside cfg))
    [
      ("--metrics", { quiet with metrics = true });
      ("--coverage", { quiet with coverage = true });
      ("--coverage-out", { quiet with coverage_out = Some "unused.jsonl" });
      ("--attribution", { quiet with attribution = true });
      ("--attribution-out", { quiet with attribution_out = Some "unused.jsonl" });
      ("--ledger", { quiet with ledger = Some "unused.jsonl" });
    ];
  check "closing disarms" false (Metrics.is_enabled ());
  quiesce ()

(* A window sees exactly the work run inside it. *)
let test_window_observes_run () =
  quiesce ();
  Telemetry.with_session { Telemetry.off with quiet = true; metrics = true }
    (fun () ->
      let (), obs =
        Telemetry.observing (fun () ->
            ignore (Runner.model_check_outcome ~jobs:2 toy))
      in
      check "stores counted" true
        (List.assoc_opt "executor/pre/stores" obs.Telemetry.o_metrics <> None);
      check "an empty window sees nothing" true
        ((snd (Telemetry.observing ignore)).Telemetry.o_metrics = []));
  quiesce ()

(* The one ledger builder: run label defaults to the program, the
   digests and cost centers come from the window. *)
let test_outcome_entry () =
  quiesce ();
  let o, obs =
    Telemetry.with_session
      { Telemetry.off with metrics = true; attribution = true }
      (fun () ->
        Telemetry.observing (fun () -> Runner.model_check_outcome ~jobs:1 toy))
  in
  let ex = Pm_corpus.Witness.of_outcome ~program:"toy" o in
  let entry cfg =
    Telemetry.outcome_entry cfg ~mode:"mc" ~seed:42 ~program:"toy" o ex obs
  in
  let e = entry Telemetry.off in
  check_str "run defaults to the program" "toy" e.Observe.Ledger.e_run;
  check_str "metrics digest from the window"
    (Observe.Ledger.digest_counters obs.Telemetry.o_metrics)
    e.Observe.Ledger.e_metrics_digest;
  check "cost centers from the window" true (e.Observe.Ledger.e_cost <> []);
  check_str "--run-label wins" "nightly"
    (entry { Telemetry.off with run_label = Some "nightly" }).Observe.Ledger.e_run;
  quiesce ()

let () =
  Alcotest.run "telemetry"
    [
      ( "coverage",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_coverage_disabled_is_noop;
          Alcotest.test_case "requires ambient program" `Quick
            test_coverage_requires_ambient_program;
          Alcotest.test_case "accumulates and merges across domains" `Quick
            test_coverage_accumulates_and_merges;
          Alcotest.test_case "ambient restored on exception" `Quick
            test_coverage_ambient_restored_on_exception;
          Alcotest.test_case "per-variant buckets" `Quick
            test_coverage_per_variant;
          Alcotest.test_case "indices label" `Quick test_indices_label;
          Alcotest.test_case "jobs-invariant snapshot" `Slow
            test_coverage_jobs_invariant;
          Alcotest.test_case "counts match engine stats" `Quick
            test_coverage_counts_match_engine;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "report identical with telemetry on" `Quick
            test_report_identical_with_telemetry_on;
        ] );
      ( "progress",
        [
          Alcotest.test_case "inactive is a no-op" `Quick
            test_progress_inactive_is_noop;
          Alcotest.test_case "jsonl stream" `Quick test_progress_jsonl_stream;
          Alcotest.test_case "engine ticks" `Quick test_progress_engine_ticks;
        ] );
      ( "session",
        [
          Alcotest.test_case "closes on exception" `Quick
            test_session_closes_on_exception;
          Alcotest.test_case "uncommittable progress stream" `Quick
            test_session_uncommittable_progress;
          Alcotest.test_case "show vs collect" `Quick test_session_show_vs_collect;
          Alcotest.test_case "window observes a run" `Quick
            test_window_observes_run;
          Alcotest.test_case "outcome entry" `Quick test_outcome_entry;
        ] );
    ]
