(* Tests for the observe layer: domain-safe counter/histogram merging,
   span nesting, trace export well-formedness, and the determinism
   contract (metrics/tracing on vs off never changes a race report;
   detector counters are identical for every job count). *)

module Metrics = Observe.Metrics
module Trace = Observe.Trace
module Span = Observe.Span
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

(* Every test leaves the global observe state as it found it:
   disabled, not recording, counters zeroed. *)
let quiesce () =
  Metrics.disable ();
  Metrics.reset ();
  Trace.stop ();
  Trace.clear ()

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
(* Spans and trace export                                               *)

let find_event name events =
  match List.find_opt (fun (e : Trace.event) -> e.Trace.name = name) events with
  | Some e -> e
  | None -> Alcotest.failf "event %S not recorded" name

let test_span_nesting () =
  quiesce ();
  Trace.start ();
  let r =
    Span.with_ ~cat:"test" "outer" (fun () ->
        Span.with_ ~cat:"test" "inner" (fun () -> 42))
  in
  Trace.stop ();
  check_int "span returns the body's value" 42 r;
  let events = Trace.events () in
  let outer = find_event "outer" events in
  let inner = find_event "inner" events in
  check "inner starts within outer" true (inner.Trace.ts_us >= outer.Trace.ts_us);
  check "inner ends within outer" true
    (inner.Trace.ts_us + inner.Trace.dur_us
    <= outer.Trace.ts_us + outer.Trace.dur_us);
  check "same lane" true
    (inner.Trace.tid = outer.Trace.tid && inner.Trace.pid = outer.Trace.pid);
  check "parents sort before children" true
    (let rec precedes = function
       | (e : Trace.event) :: rest ->
           if e.Trace.name = "outer" then true
           else if e.Trace.name = "inner" then false
           else precedes rest
       | [] -> false
     in
     precedes events);
  quiesce ()

let test_span_off_costs_nothing () =
  quiesce ();
  check_int "no recording, no events" 0
    (Span.with_ "unrecorded" (fun () -> Trace.event_count ()));
  quiesce ()

let test_chrome_json_well_formed () =
  quiesce ();
  Trace.start ();
  (* Args exercising every escape path of the emitter. *)
  Trace.instant ~cat:"test"
    ~args:[ ("tricky", "quote\" backslash\\ newline\n tab\t control\x01") ]
    "escape me";
  Span.with_ ~cat:"test" "span" (fun () -> ());
  Trace.stop ();
  (match Json.parse (Trace.to_chrome_json ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "chrome json rejected: %s" msg);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (`O _) -> ()
      | Ok _ -> Alcotest.failf "jsonl line is not an object: %s" line
      | Error msg -> Alcotest.failf "jsonl line rejected: %s" msg)
    (List.filter (( <> ) "") (String.split_on_char '\n' (Trace.to_jsonl ())));
  quiesce ()

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

let test_write_and_lint_roundtrip () =
  quiesce ();
  Trace.start ();
  Span.with_ ~cat:"test" ~args:[ ("k", "v") ] "roundtrip" (fun () -> ());
  Trace.stop ();
  let json = Filename.temp_file "yashme-trace" ".json" in
  let jsonl = Filename.temp_file "yashme-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove json;
      Sys.remove jsonl)
    (fun () ->
      Trace.write json;
      Trace.write jsonl;
      (match Trace.check_file json with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" json msg);
      match Trace.check_file jsonl with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" jsonl msg);
  quiesce ()

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

(* Regression: empty/truncated trace files must lint as malformed with
   an error positioned in the file, for both formats.  (A JSONL file of
   zero lines used to lint vacuously clean.) *)
let test_trace_lint_rejects_empty_and_truncated () =
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.iter
    (fun (suffix, content) ->
      let tmp = Filename.temp_file "yashme-lint" suffix in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          let oc = open_out tmp in
          output_string oc content;
          close_out oc;
          match Trace.check_file tmp with
          | Ok () ->
              Alcotest.failf "accepted %s file with %d byte(s)" suffix
                (String.length content)
          | Error msg ->
              check ("positioned error for " ^ suffix) true
                (starts_with (tmp ^ ":") msg)))
    [
      (".json", "");
      (".jsonl", "");
      (".json", "  \n \t ");
      (".jsonl", "\n\n");
      (* truncated mid-event: a crash while writing must not lint *)
      (".json", "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"");
      (".jsonl", "{\"name\":\"x\",\"ph\":\"X\"}\n{\"name\":\"y\",");
      (* a lone surrogate is not a character *)
      (".jsonl", "{\"name\":\"x\",\"ph\":\"X\"}\n{\"name\":\"\\ud800\"}\n");
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
        (Observe.Log.level_to_string Observe.Log.Info);
      (* the trace mirror fires regardless of the stderr threshold *)
      Observe.Log.set_level Observe.Log.Off;
      Trace.start ();
      Observe.Log.warn "suppressed on stderr";
      Observe.Log.info "also mirrored";
      Observe.Log.debug "this too";
      Trace.stop ();
      let logged name =
        List.exists
          (fun (e : Trace.event) ->
            e.Trace.name = name && e.Trace.cat = "log")
          (Trace.events ())
      in
      check "warning mirrored while Off" true (logged "warning");
      check "info mirrored while Off" true (logged "info");
      check "debug mirrored while Off" true (logged "debug"));
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Determinism contract                                                 *)

let test_report_identical_with_observability_on () =
  quiesce ();
  let off = Report.to_string (Runner.model_check ~jobs:2 toy) in
  Metrics.enable ();
  Trace.start ();
  let on = Report.to_string (Runner.model_check ~jobs:2 toy) in
  Trace.stop ();
  Metrics.disable ();
  check_str "race report byte-identical with metrics+trace on" off on;
  check "a parallel run actually recorded spans" true (Trace.event_count () > 0);
  quiesce ()

let detector_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 9 && String.sub name 0 9 = "detector/")
    (Metrics.snapshot ())

let test_detector_counters_jobs_invariant () =
  quiesce ();
  Metrics.enable ();
  let p = Pm_benchmarks.Cceh.program in
  ignore (Runner.model_check ~jobs:1 p);
  let j1 = detector_counters () in
  Metrics.reset ();
  ignore (Runner.model_check ~jobs:4 p);
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
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "spans free when off" `Quick
            test_span_off_costs_nothing;
          Alcotest.test_case "chrome/jsonl well-formed" `Quick
            test_chrome_json_well_formed;
          Alcotest.test_case "json checker rejects malformed" `Quick
            test_check_json_rejects_malformed;
          Alcotest.test_case "write + lint roundtrip" `Quick
            test_write_and_lint_roundtrip;
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
