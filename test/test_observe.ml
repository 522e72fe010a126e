(* Tests for the observe layer: domain-safe counter/histogram merging,
   the JSON checks behind trace-lint, log levels, and the determinism
   contract (metrics on vs off never changes a race report; detector
   counters are identical for every job count). *)

module Metrics = Observe.Metrics
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
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

let model_check ~jobs p = (Runner.model_check_outcome ~jobs p).Runner.o_report

(* Every test leaves the global observe state as it found it:
   disabled, counters zeroed. *)
let quiesce () =
  Metrics.disable ();
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                              *)

(* The merged reading of one cell. *)
let read c =
  List.find (fun (r : Metrics.reading) -> r.name = Metrics.name c) (Metrics.cells ())

let value c = (read c).count

let test_counter_disabled_is_noop () =
  quiesce ();
  let c = Metrics.counter "test/disabled" in
  Metrics.incr c;
  Metrics.add c 41;
  check_int "writes while disabled don't count" 0 (value c)

let test_counter_registration_idempotent () =
  quiesce ();
  Metrics.enable ();
  let a = Metrics.counter "test/idem" in
  let b = Metrics.counter "test/idem" in
  Metrics.incr a;
  Metrics.incr b;
  check_int "same name, same cells" 2 (value a);
  check_str "name kept" "test/idem" (Metrics.name b);
  quiesce ()

let test_counter_merge_across_domains () =
  quiesce ();
  Metrics.enable ();
  let c = Metrics.counter "test/domains" in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check_int "4 domains x 10k increments merge exactly" (4 * per_domain)
    (value c);
  quiesce ()

let test_histogram_merge_across_domains () =
  quiesce ();
  Metrics.enable ();
  let h = Metrics.histogram "test/hist" in
  (* Each domain records 1..100; stats must merge across shards. *)
  let worker () =
    for i = 1 to 100 do
      Metrics.observe h i
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  let s = read h in
  check_int "count" 400 s.count;
  check_int "sum" (4 * 5050) s.units;
  check_int "max" 100 s.max;
  quiesce ()

let test_snapshot_diff () =
  quiesce ();
  Metrics.enable ();
  let c = Metrics.counter "test/diffed" in
  let before = Metrics.snapshot () in
  Metrics.add c 7;
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check "only the changed counter appears" true
    (List.for_all (fun (name, v) -> name <> "test/diffed" || v = 7) d
    && List.mem_assoc "test/diffed" d);
  check "zero deltas dropped" false (List.mem_assoc "test/disabled" d);
  quiesce ()

(* ------------------------------------------------------------------ *)
(* JSON checks behind trace-lint                                        *)

let test_check_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "\"unterminated";
      "{\"a\":1} trailing"; "nulll"; "[1 2]"; "{\"bad\\x\":1}";
      "{\"a\":\"\\ud800\"}"; "[01]"; "[1.]"; "[.5]"; "[+3]"; "[0x10]";
      "[\"tab\there\"]";
    ];
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected valid JSON %S: %s" s msg)
    [ "{}"; "[]"; "null"; "-1.5e3"; "{\"a\":[1,true,\"x\\u0041\"]}";
      " [ -0 , 0.5E+2 , \"\\ud83d\\ude00\" ] " ]

(* Edge cases of the snapshot/diff algebra. *)

let test_diff_absent_and_negative () =
  quiesce ();
  Metrics.enable ();
  let before = Metrics.snapshot () in
  (* A counter registered only after [before] counts from zero... *)
  let c = Metrics.counter "test/born_late" in
  Metrics.add c 5;
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check_int "name absent from before counts as 0" 5
    (List.assoc "test/born_late" d);
  (* ...and a reset between the snapshots yields a negative delta,
     which diff keeps (only exact zeros are dropped). *)
  let before = Metrics.snapshot () in
  Metrics.reset ();
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check_int "post-reset delta is negative, not dropped" (-5)
    (List.assoc "test/born_late" d);
  check "empty diffs are empty" true (Metrics.diff [] [] = []);
  quiesce ()

let test_histogram_zero_samples () =
  quiesce ();
  Metrics.enable ();
  let h = Metrics.histogram "test/empty_hist" in
  let s = read h in
  check_int "zero-sample count" 0 s.count;
  check_int "zero-sample sum" 0 s.units;
  check_int "zero-sample max" 0 s.max;
  (* a zero-observation histogram contributes nothing to a diff *)
  let before = Metrics.snapshot () in
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check "no delta entries for untouched histogram" false
    (List.exists (fun (name, _) -> name = "test/empty_hist#count") d);
  (* observing 0 is a sample, not a no-op *)
  Metrics.observe h 0;
  let s = read h in
  check_int "sample of value 0 counted" 1 s.count;
  quiesce ()

(* Each window reports the maximum of its own samples, also when windows
   nest: an outer window around two windows in sequence, with samples 5
   and 3, reports 5, 3 and 5; the process-wide maximum survives. *)
let test_window_maxima () =
  quiesce ();
  Metrics.enable ();
  let h = Metrics.histogram "test/window_max" in
  Metrics.observe h 9;
  let max_of cells = List.assoc "test/window_max#max" (Metrics.counters cells) in
  let (first, second), outer =
    Metrics.window (fun () ->
        let (), a = Metrics.window (fun () -> Metrics.observe h 5) in
        let (), b = Metrics.window (fun () -> Metrics.observe h 3) in
        (a, b))
  in
  check_int "first window" 5 (max_of first);
  check_int "second window" 3 (max_of second);
  check_int "outer window" 5 (max_of outer);
  check_int "whole-run maximum kept" 9 (read h).max;
  check_int "window counts are deltas" 1
    (List.assoc "test/window_max#count" (Metrics.counters second));
  quiesce ()

(* Regression: empty/truncated JSONL files must lint as malformed with
   an error positioned in the file.  (A JSONL file of zero lines used
   to lint vacuously clean.) *)
let test_trace_lint_rejects_empty_and_truncated () =
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.iter
    (fun content ->
      let tmp = Filename.temp_file "yashme-lint" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          let oc = open_out tmp in
          output_string oc content;
          close_out oc;
          match Json.load_lines ~what:"JSONL file" tmp Json.parse with
          | Ok _ ->
              Alcotest.failf "accepted a file with %d byte(s)" (String.length content)
          | Error msg -> check "positioned error" true (starts_with (tmp ^ ":") msg)))
    [
      "";
      "\n\n";
      (* truncated mid-line: a crash while writing must not lint *)
      "{\"name\":\"x\",\"ph\":\"X\"}\n{\"name\":\"y\",";
      (* a lone surrogate is not a character *)
      "{\"name\":\"x\",\"ph\":\"X\"}\n{\"name\":\"\\ud800\"}\n";
    ]

(* ------------------------------------------------------------------ *)
(* Log levels                                                           *)

let test_log_levels () =
  quiesce ();
  let saved = Observe.Log.level () in
  Fun.protect
    ~finally:(fun () -> Observe.Log.set_level saved)
    (fun () ->
      Observe.Log.set_level Observe.Log.Debug;
      check "debug threshold" true (Observe.Log.level () = Observe.Log.Debug);
      check "debug is not quiet" false (Observe.Log.quiet ());
      (* --quiet compatibility aliases *)
      Observe.Log.set_quiet true;
      check "set_quiet true = Off" true (Observe.Log.level () = Observe.Log.Off);
      check "off is quiet" true (Observe.Log.quiet ());
      Observe.Log.set_quiet false;
      check "set_quiet false restores Warn" true
        (Observe.Log.level () = Observe.Log.Warn);
      (* parsing *)
      List.iter
        (fun (s, expect) ->
          check ("parse " ^ s) true (Observe.Log.level_of_string s = expect))
        [
          ("off", Some Observe.Log.Off); ("quiet", Some Observe.Log.Off);
          ("warn", Some Observe.Log.Warn); ("warning", Some Observe.Log.Warn);
          ("info", Some Observe.Log.Info); ("debug", Some Observe.Log.Debug);
          ("verbose", None);
        ];
      check_str "to_string roundtrip" "info"
        (Observe.Log.level_to_string Observe.Log.Info));
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Determinism contract                                                 *)

let test_report_identical_with_observability_on () =
  quiesce ();
  let off = Report.to_string (model_check ~jobs:2 toy) in
  Metrics.enable ();
  let on = Report.to_string (model_check ~jobs:2 toy) in
  Metrics.disable ();
  check_str "race report byte-identical with metrics on" off on;
  check "a parallel run actually counted" true
    (List.exists (fun (_, v) -> v > 0) (Metrics.snapshot ()));
  quiesce ()

let detector_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 9 && String.sub name 0 9 = "detector/")
    (Metrics.snapshot ())

let test_detector_counters_jobs_invariant () =
  quiesce ();
  Metrics.enable ();
  let p = Pm_benchmarks.Cceh.program in
  ignore (model_check ~jobs:1 p);
  let j1 = detector_counters () in
  Metrics.reset ();
  ignore (model_check ~jobs:4 p);
  let j4 = detector_counters () in
  check "counters recorded" true
    (List.exists (fun (_, v) -> v > 0) j1);
  check "detector counters identical for jobs=1 and jobs=4" true (j1 = j4);
  quiesce ()

let () =
  Alcotest.run "observe"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_counter_disabled_is_noop;
          Alcotest.test_case "registration idempotent" `Quick
            test_counter_registration_idempotent;
          Alcotest.test_case "counter merge across 4 domains" `Quick
            test_counter_merge_across_domains;
          Alcotest.test_case "histogram merge across 4 domains" `Quick
            test_histogram_merge_across_domains;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "diff absent names and negatives" `Quick
            test_diff_absent_and_negative;
          Alcotest.test_case "zero-sample histograms" `Quick
            test_histogram_zero_samples;
          Alcotest.test_case "window maxima" `Quick test_window_maxima;
        ] );
      ( "log",
        [ Alcotest.test_case "levels and aliases" `Quick test_log_levels ] );
      ( "trace",
        [
          Alcotest.test_case "json checker rejects malformed" `Quick
            test_check_json_rejects_malformed;
          Alcotest.test_case "lint rejects empty/truncated files" `Quick
            test_trace_lint_rejects_empty_and_truncated;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "report identical with observability on" `Quick
            test_report_identical_with_observability_on;
          Alcotest.test_case "detector counters jobs-invariant" `Slow
            test_detector_counters_jobs_invariant;
        ] );
    ]
