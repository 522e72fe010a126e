(* Tests for the exploration telemetry subsystem: crash-space coverage
   accounting (jobs-invariance, ambient attribution, rendering), live
   progress streams, trace profiles and telemetry sessions.  The
   determinism contract is asserted end to end: coverage
   snapshots are byte-identical across --jobs counts, and a race
   report is byte-identical with all telemetry on vs off. *)

module Coverage = Observe.Coverage
module Progress = Observe.Progress
module Profile = Observe.Profile
module Metrics = Observe.Metrics
module Trace = Observe.Trace
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
  Coverage.disable ();
  Coverage.reset ();
  ignore (Progress.stop ());
  Trace.stop ();
  Trace.clear ()

(* The coverage snapshot in its exported JSONL form: the byte string
   the jobs-invariance contract quantifies over. *)
let coverage_jsonl () =
  String.concat "\n"
    (List.map (fun s -> Json.encode_obj (Coverage.fields s)) (Coverage.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Coverage                                                             *)

let test_coverage_disabled_is_noop () =
  quiesce ();
  Coverage.with_program "p" (fun () ->
      Coverage.scenario_started ();
      Coverage.plan_exercised 0;
      Coverage.crash_point 0);
  check_int "nothing recorded while disabled" 0
    (List.length (Coverage.snapshot ()));
  quiesce ()

let test_coverage_requires_ambient_program () =
  quiesce ();
  Coverage.enable ();
  (* outside with_program: dropped *)
  Coverage.scenario_started ();
  Coverage.plan_exercised 3;
  Coverage.line_materialized 1;
  check_int "hooks without ambient program are dropped" 0
    (List.length (Coverage.snapshot ()));
  quiesce ()

let test_coverage_accumulates_and_merges () =
  quiesce ();
  Coverage.enable ();
  (* Same program from two domains: counters sum, index sets union. *)
  let work lo =
    Coverage.with_program "prog" (fun () ->
        for i = lo to lo + 2 do
          Coverage.scenario_started ();
          Coverage.plan_exercised i;
          Coverage.crash_point i;
          Coverage.prefix_expanded ();
          Coverage.pruned `Coherence;
          Coverage.line_materialized (i mod 2)
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
  Coverage.enable ();
  (try
     Coverage.with_program "outer" (fun () ->
         try Coverage.with_program "inner" (fun () -> failwith "boom")
         with Failure _ ->
           (* ambient must be back to "outer" here *)
           Coverage.scenario_started ())
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
  Coverage.enable ();
  Coverage.with_program "prog" (fun () -> Coverage.scenario_started ());
  Coverage.with_program ~variant:"fence-nop" "prog" (fun () ->
      Coverage.scenario_started ();
      Coverage.scenario_started ());
  (match Coverage.find "prog" with
  | Some s ->
      check_int "default bucket isolated" 1 s.Coverage.scenarios;
      check_str "default bucket label" Coverage.default_variant
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
  Coverage.enable ();
  ignore (Runner.model_check_outcome ~jobs:1 toy);
  let j1 = coverage_jsonl () in
  Coverage.reset ();
  ignore (Runner.model_check_outcome ~jobs:4 toy);
  let j4 = coverage_jsonl () in
  check "toy explored something" true (String.length j1 > 0);
  check_str "coverage byte-identical for jobs=1 vs jobs=4" j1 j4;
  quiesce ()

let test_coverage_counts_match_engine () =
  quiesce ();
  Coverage.enable ();
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
  Coverage.enable ();
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Trace.start ();
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
  (match Trace.check_file tmp with
  | Ok () -> ()
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
(* Profile                                                              *)

let ev ?(cat = "") ?(pid = 0) ?(tid = 0) ~ts ~dur name =
  { Trace.name; cat; ph = Trace.Complete; ts_us = ts; dur_us = dur; pid; tid;
    args = [] }

let test_profile_self_time () =
  (* parent [0,120) with children [10,40) and [50,70): self = 70 *)
  let events =
    [ ev ~cat:"a" ~ts:0 ~dur:120 "parent";
      ev ~cat:"b" ~ts:10 ~dur:30 "child";
      ev ~cat:"b" ~ts:50 ~dur:20 "child" ]
  in
  let rows = Profile.by_name events in
  let find k = List.find (fun r -> r.Profile.r_key = k) rows in
  let parent = find "parent" and child = find "child" in
  check_int "parent total inclusive" 120 parent.Profile.r_total_us;
  check_int "parent self excludes children" 70 parent.Profile.r_self_us;
  check_int "child count" 2 child.Profile.r_count;
  check_int "leaf self = total" 50 child.Profile.r_self_us;
  check_str "sorted by self descending" "parent"
    (List.hd rows).Profile.r_key;
  let cats = Profile.by_cat events in
  check_int "category aggregation" 2 (List.length cats)

let test_profile_lanes_isolated () =
  (* identical intervals in different lanes must not nest *)
  let events =
    [ ev ~tid:0 ~ts:0 ~dur:100 "a"; ev ~tid:1 ~ts:10 ~dur:30 "b" ]
  in
  let rows = Profile.by_name events in
  let find k = List.find (fun r -> r.Profile.r_key = k) rows in
  check_int "no cross-lane nesting" 100 (find "a").Profile.r_self_us;
  let lanes = Profile.lanes events in
  check_int "two lanes" 2 (List.length lanes);
  check_int "lane busy = top-level duration" 100
    (List.hd lanes).Profile.l_busy_us

let test_profile_parse_roundtrip () =
  quiesce ();
  Trace.start ();
  Observe.Span.with_ ~cat:"t" "outer" (fun () ->
      Observe.Span.with_ ~cat:"t" "inner" (fun () -> ());
      Trace.instant ~cat:"t" "mark");
  Trace.stop ();
  let n_complete =
    List.length
      (List.filter (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete)
         (Trace.events ()))
  in
  List.iter
    (fun suffix ->
      let tmp = Filename.temp_file "yashme_profile" suffix in
      Trace.write tmp;
      (match Profile.parse_file tmp with
      | Error e -> Alcotest.fail (suffix ^ ": " ^ e)
      | Ok events ->
          check_int (suffix ^ ": all events parsed") 3 (List.length events);
          check_int
            (suffix ^ ": complete spans preserved")
            n_complete
            (List.length
               (List.filter
                  (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete)
                  events)));
      Sys.remove tmp)
    [ ".json"; ".jsonl" ];
  quiesce ()

let test_profile_rejects_empty_and_garbage () =
  let tmp = Filename.temp_file "yashme_profile" ".json" in
  (match Profile.parse_file tmp with
  | Error e -> check_str "empty file positioned error" (tmp ^ ":1: empty trace file") e
  | Ok _ -> Alcotest.fail "empty file accepted");
  let oc = open_out tmp in
  output_string oc "{\"traceEvents\":[{\"name\":\"x\"";
  close_out oc;
  (match Profile.parse_file tmp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated file accepted");
  Sys.remove tmp

(* A surrogate-pair escape decodes to the 4-byte UTF-8 character, not
   to two 3-byte surrogate encodings. *)
let test_profile_decodes_surrogate_pairs () =
  let tmp = Filename.temp_file "yashme_profile" ".jsonl" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc
        "{\"name\":\"\\ud83d\\ude00\",\"cat\":\"\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\
         \"pid\":0,\"tid\":0,\"args\":{}}\n");
  let r = Profile.parse_file tmp in
  Sys.remove tmp;
  match r with
  | Ok [ e ] -> check_str "name bytes" "\xf0\x9f\x98\x80" e.Trace.name
  | Ok _ -> Alcotest.fail "expected one event"
  | Error e -> Alcotest.fail e

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

(* A run that raises out of the session still commits the progress
   stream with its final line, writes the trace, leaves no temporary
   behind and disarms what it armed; the exception reaches the caller
   unchanged. *)
let test_session_closes_on_exception () =
  quiesce ();
  let d = temp_dir () in
  let progress = Filename.concat d "progress.jsonl"
  and trace = Filename.concat d "trace.json" in
  let cfg =
    { Telemetry.off with
      quiet = true; metrics = true; progress_out = Some progress;
      trace_out = Some trace }
  in
  (match
     Telemetry.with_session cfg (fun () ->
         ignore (Runner.model_check_outcome ~jobs:2 toy);
         raise Exit)
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Exit -> ());
  check "progress committed" true (Sys.file_exists progress);
  check "trace written" true (Sys.file_exists trace);
  check "no temporary left" false
    (Array.exists
       (fun f -> Str.string_match (Str.regexp ".*\\.tmp\\.") f 0)
       (Sys.readdir d));
  check "progress lints" true (Trace.check_file progress = Ok ());
  check "trace lints" true (Trace.check_file trace = Ok ());
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin progress In_channel.input_all)
  in
  check "final summary line" true
    (List.exists
       (fun l -> Str.string_match (Str.regexp ".*\"per_domain\"") l 0)
       lines);
  check "metrics disarmed" false (Metrics.is_enabled ());
  check "trace stopped" false (Trace.recording ());
  remove_dir d;
  quiesce ()

(* A trace that cannot be written neither masks the body's exception
   nor stops the rest of the close: progress is still committed and
   everything disarmed.  When the body returned, the write error itself
   reaches the caller. *)
let test_session_unwritable_trace () =
  quiesce ();
  let d = temp_dir () in
  let progress = Filename.concat d "progress.jsonl" in
  let cfg =
    { Telemetry.off with
      quiet = true; metrics = true; progress_out = Some progress;
      trace_out = Some (Filename.concat d "missing/trace.json") }
  in
  (match Telemetry.with_session cfg (fun () -> raise Exit) with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Exit -> ()
  | exception e -> Alcotest.failf "body's Exit masked by %s" (Printexc.to_string e));
  check "progress committed" true (Sys.file_exists progress);
  check "metrics disarmed" false (Metrics.is_enabled ());
  check "trace stopped" false (Trace.recording ());
  Sys.remove progress;
  (match Telemetry.with_session cfg (fun () -> ()) with
  | () -> Alcotest.fail "the trace write error was swallowed"
  | exception Sys_error _ -> ());
  check "progress committed after a normal body" true (Sys.file_exists progress);
  check "metrics disarmed after a normal body" false (Metrics.is_enabled ());
  check "no temporary left" false
    (Array.exists
       (fun f -> Str.string_match (Str.regexp ".*\\.tmp\\.") f 0)
       (Sys.readdir d));
  remove_dir d;
  quiesce ()

(* --ledger collects metrics, coverage and attribution without showing
   them; a show flag arms only its own collector; closing disarms all
   three. *)
let test_session_show_vs_collect () =
  quiesce ();
  let armed () =
    ( Metrics.is_enabled (),
      Observe.Attribution.is_enabled (),
      Coverage.is_enabled () )
  in
  let inside cfg = Telemetry.with_session cfg armed in
  let quiet = { Telemetry.off with quiet = true } in
  check "off arms nothing" true (inside quiet = (false, false, false));
  check "a ledger arms all three" true
    (inside { quiet with ledger = Some "unused.jsonl" } = (true, true, true));
  check "coverage-out arms coverage" true
    (inside { quiet with coverage_out = Some "unused.jsonl" }
    = (false, false, true));
  check "attribution arms attribution" true
    (inside { quiet with attribution = true } = (false, true, false));
  check "closing disarms" true (armed () = (false, false, false));
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

(* Best-of-N visits every level once per pass, in order, and keeps one
   winner per level. *)
let test_best_of_interleaves () =
  quiesce ();
  let calls = ref [] in
  let best =
    Telemetry.best_of ~repeats:2 [ 1; 2 ] (fun ~rep ~jobs ->
        calls := (rep, jobs) :: !calls;
        Telemetry.measure ~jobs toy)
  in
  check "interleaved passes" true
    (List.rev !calls = [ (1, 1); (1, 2); (2, 1); (2, 2) ]);
  check "one winner per level, in order" true
    (List.map
       (fun s -> s.Telemetry.s_outcome.Runner.o_stats.Engine.jobs)
       best
    = [ 1; 2 ]);
  quiesce ()

let test_parse_levels () =
  let p = Telemetry.parse_levels in
  check "sorted, distinct" true (p "4,1,1" = Some [ 1; 4 ]);
  check "blanks and empty tokens" true (p " 2 , 1," = Some [ 1; 2 ]);
  check "nothing parses" true (p "x" = None);
  check "one token is not an integer" true (p "1,x" = None);
  check "empty" true (p "" = None);
  check "below one" true (p "0,2" = None)

(* The one ledger builder: run label defaults to the program, the
   digests and cost centers come from the window. *)
let test_outcome_entry () =
  quiesce ();
  let s =
    Telemetry.with_session
      { Telemetry.off with metrics = true; attribution = true }
      (fun () -> Telemetry.measure ~jobs:1 toy)
  in
  let entry cfg =
    Telemetry.outcome_entry cfg ~mode:"mc" ~seed:42 ~program:"toy"
      s.Telemetry.s_outcome s.Telemetry.s_extraction s.Telemetry.s_observed
  in
  let e = entry Telemetry.off in
  check_str "run defaults to the program" "toy" e.Observe.Ledger.e_run;
  check_str "metrics digest from the window"
    (Observe.Ledger.digest_counters s.Telemetry.s_observed.Telemetry.o_metrics)
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
      ( "profile",
        [
          Alcotest.test_case "self time" `Quick test_profile_self_time;
          Alcotest.test_case "lanes isolated" `Quick test_profile_lanes_isolated;
          Alcotest.test_case "parse roundtrip" `Quick
            test_profile_parse_roundtrip;
          Alcotest.test_case "rejects empty and garbage" `Quick
            test_profile_rejects_empty_and_garbage;
          Alcotest.test_case "decodes surrogate pairs" `Quick
            test_profile_decodes_surrogate_pairs;
        ] );
      ( "session",
        [
          Alcotest.test_case "closes on exception" `Quick
            test_session_closes_on_exception;
          Alcotest.test_case "unwritable trace" `Quick
            test_session_unwritable_trace;
          Alcotest.test_case "show vs collect" `Quick test_session_show_vs_collect;
          Alcotest.test_case "window observes a run" `Quick
            test_window_observes_run;
          Alcotest.test_case "best-of interleaves" `Quick test_best_of_interleaves;
          Alcotest.test_case "parse levels" `Quick test_parse_levels;
          Alcotest.test_case "outcome entry" `Quick test_outcome_entry;
        ] );
    ]
