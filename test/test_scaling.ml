(* Tests for the scaling observatory: per-domain timeline
   reconstruction (busy/wait/idle classification, edge cases, ASCII and
   SVG rendering, idle-gap histograms), the jobs-sweep analyzer (Amdahl
   fit, loss decomposition, the non-timing-projection determinism
   check).  The crux contract is asserted end to end on a real engine
   run: the non-timing projection of a sweep level is byte-identical at
   jobs=1 and jobs=4. *)

module Timeline = Observe.Timeline
module Scaling = Observe.Scaling
module Trace = Observe.Trace
module Json = Yashme_util.Json
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Synthetic traces                                                     *)

let span ?(cat = "scenario") ?(pid = 0) ~tid ~ts ~dur name =
  {
    Trace.name;
    cat;
    ph = Trace.Complete;
    ts_us = ts;
    dur_us = dur;
    pid;
    tid;
    args = [];
  }

(* An engine-shaped 2-lane trace: workers alive [0,100], lane 0 busy
   [10,40] and [50,80], lane 1 busy [20,60]; plus the batch span on the
   main lane (cat engine, not a work span). *)
let engine_trace =
  [
    span ~cat:"engine" ~tid:0 ~ts:0 ~dur:100 "worker";
    span ~tid:0 ~ts:10 ~dur:30 "s0";
    span ~tid:0 ~ts:50 ~dur:30 "s1";
    span ~cat:"engine" ~tid:1 ~ts:0 ~dur:100 "worker";
    span ~tid:1 ~ts:20 ~dur:40 "s2";
    span ~cat:"engine" ~tid:0 ~ts:0 ~dur:100 "batch";
  ]

let reconstruct events =
  match Timeline.of_events events with
  | Ok t -> t
  | Error msg -> Alcotest.failf "of_events: %s" msg

let lane t ~tid =
  match
    List.find_opt (fun l -> l.Timeline.tl_tid = tid) t.Timeline.t_lanes
  with
  | Some l -> l
  | None -> Alcotest.failf "no lane tid=%d" tid

let test_timeline_classification () =
  let t = reconstruct engine_trace in
  check_int "two lanes" 2 (List.length t.Timeline.t_lanes);
  check_int "makespan" 100 t.Timeline.t_makespan_us;
  let l0 = lane t ~tid:0 and l1 = lane t ~tid:1 in
  check_int "lane0 busy" 60 l0.Timeline.tl_busy_us;
  check_int "lane0 wait" 40 l0.Timeline.tl_wait_us;
  check_int "lane0 idle" 0 l0.Timeline.tl_idle_us;
  check_int "lane0 spans" 2 l0.Timeline.tl_spans;
  check_int "lane1 busy" 40 l1.Timeline.tl_busy_us;
  check_int "lane1 wait" 60 l1.Timeline.tl_wait_us;
  check_int "critical path" 60 t.Timeline.t_critical_path_us;
  check "straggler is lane 0 (busy ends at 80 vs 60)" true
    (t.Timeline.t_straggler = Some (0, 0));
  check_int "straggler tail" 20 t.Timeline.t_straggler_tail_us;
  (* 10us gap between lane0's busy segments *)
  check "lane0 gaps" true (l0.Timeline.tl_gaps = [ 10 ]);
  check_int "lane0 max gap" 10 (Timeline.max_gap_us l0);
  check "gap histogram bucket <=16us" true
    (Timeline.gap_histogram l0 = [ (16, 1) ]);
  check_str "gap label" "<=16us:1" (Timeline.histogram_label l0);
  check_str "gap-free label" "-" (Timeline.histogram_label l1)

let test_timeline_out_of_order () =
  (* The same trace, reversed and shuffled: reconstruction must not
     depend on event order. *)
  let t = reconstruct engine_trace in
  let t' = reconstruct (List.rev engine_trace) in
  check "order-independent" true
    (List.map
       (fun l -> (l.Timeline.tl_tid, l.Timeline.tl_busy_us, l.Timeline.tl_wait_us))
       t.Timeline.t_lanes
    = List.map
        (fun l -> (l.Timeline.tl_tid, l.Timeline.tl_busy_us, l.Timeline.tl_wait_us))
        t'.Timeline.t_lanes)

let test_timeline_zero_length_spans () =
  (* 0-us parent and child spans: counted as work spans, contribute no
     busy time, and never crash the interval algebra. *)
  let events =
    [
      span ~cat:"engine" ~tid:0 ~ts:0 ~dur:50 "worker";
      span ~tid:0 ~ts:10 ~dur:0 "instantaneous";
      span ~tid:0 ~ts:20 ~dur:10 "real";
      span ~cat:"engine" ~tid:0 ~ts:10 ~dur:0 "worker";
    ]
  in
  let t = reconstruct events in
  let l = lane t ~tid:0 in
  check_int "zero-length spans still counted" 2 l.Timeline.tl_spans;
  check_int "busy excludes 0-us spans" 10 l.Timeline.tl_busy_us;
  check_int "wait" 40 l.Timeline.tl_wait_us

let test_timeline_single_lane () =
  let events = [ span ~tid:0 ~ts:5 ~dur:20 "only" ] in
  let t = reconstruct events in
  check_int "one lane" 1 (List.length t.Timeline.t_lanes);
  let l = lane t ~tid:0 in
  (* No worker span: the lane's own extent is the alive cover. *)
  check_int "busy" 20 l.Timeline.tl_busy_us;
  check_int "no wait" 0 l.Timeline.tl_wait_us;
  check "single lane is its own straggler, tail 0" true
    (t.Timeline.t_straggler = Some (0, 0) && t.Timeline.t_straggler_tail_us = 0)

let test_timeline_top_level_fallback () =
  (* A trace with no "scenario"-cat spans: top-level spans become the
     work cover (nested children are not double-counted). *)
  let events =
    [
      span ~cat:"phase" ~tid:0 ~ts:0 ~dur:40 "outer";
      span ~cat:"phase" ~tid:0 ~ts:10 ~dur:10 "inner";
    ]
  in
  let t = reconstruct events in
  let l = lane t ~tid:0 in
  check_int "only the outer span is work" 1 l.Timeline.tl_spans;
  check_int "busy = outer extent" 40 l.Timeline.tl_busy_us

let test_timeline_empty_rejected () =
  (match Timeline.of_events [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace accepted");
  (* Instants alone are not spans either. *)
  match
    Timeline.of_events
      [ { (span ~tid:0 ~ts:0 ~dur:0 "i") with Trace.ph = Trace.Instant } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "instants-only trace accepted"

let test_timeline_ascii () =
  let t = reconstruct engine_trace in
  let chart = Timeline.ascii ~width:20 t in
  check "chart has busy cells" true (String.contains chart '#');
  check "chart has wait cells" true (String.contains chart '.');
  check "legend present" true
    (let re = Str.regexp_string "pool utilization" in
     try ignore (Str.search_forward re chart 0); true
     with Not_found -> false);
  check_int "one row per lane + legend" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' chart)))

let test_timeline_svg_well_formed () =
  let t = reconstruct engine_trace in
  let doc = Timeline.svg t in
  (match Timeline.check_svg doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "emitted SVG rejected: %s" msg);
  (* The checker is a real checker: unbalanced and ill-quoted documents
     are rejected. *)
  check "unbalanced rejected" true
    (Result.is_error (Timeline.check_svg "<svg><rect></svg>"));
  check "unquoted attr rejected" true
    (Result.is_error (Timeline.check_svg "<svg width=3></svg>"));
  check "bad entity rejected" true
    (Result.is_error (Timeline.check_svg "<svg>&nope;</svg>"));
  check "non-svg root rejected" true
    (Result.is_error (Timeline.check_svg "<html></html>"));
  check "prolog accepted" true
    (Result.is_ok (Timeline.check_svg "<?xml version=\"1.0\"?><svg></svg>"))

let test_timeline_lane_fields_flat () =
  let t = reconstruct engine_trace in
  List.iter
    (fun l ->
      let line = Json.encode_obj (Timeline.lane_fields t l) in
      match Json.decode_obj line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "lane JSONL rejected: %s" msg)
    t.Timeline.t_lanes

(* ------------------------------------------------------------------ *)
(* Jobs-sweep analysis                                                  *)

let level ?(scenarios = 28) ?(races = 4) ~jobs ~elapsed_s () =
  {
    Scaling.v_jobs = jobs;
    v_elapsed_s = elapsed_s;
    v_cpu_s = elapsed_s;
    v_scenarios = scenarios;
    v_completed = scenarios;
    v_faulted = 0;
    v_executions = 2 * scenarios;
    v_ops = 100 * scenarios;
    v_races = races;
    v_witnesses = races;
    v_snapshot_bytes = 0;
    v_queue_wait_us = 0;
    v_snapshot_us = 0;
    v_merge_us = 0;
    v_gc_minor_words = 0;
    v_gc_major_words = 0;
  }

let analyze levels =
  match Scaling.analyze ~program:"toy" levels with
  | Ok a -> a
  | Error msg -> Alcotest.failf "analyze: %s" msg

let test_scaling_perfect () =
  (* T(n) = T1/n: speedup n, efficiency 1, serial fraction 0. *)
  let a =
    analyze
      [ level ~jobs:1 ~elapsed_s:1.0 (); level ~jobs:2 ~elapsed_s:0.5 ();
        level ~jobs:4 ~elapsed_s:0.25 () ]
  in
  let _, d4 = List.nth a.Scaling.a_levels 2 in
  check "speedup 4 at jobs=4" true (abs_float (d4.Scaling.d_speedup -. 4.) < 1e-9);
  check "efficiency 1" true (abs_float (d4.Scaling.d_efficiency -. 1.) < 1e-9);
  (match a.Scaling.a_serial_fraction with
  | Some s -> check "serial fraction ~0" true (s < 1e-9)
  | None -> Alcotest.fail "no serial fraction fitted")

let test_scaling_flat () =
  (* T(n) = T1: no parallelism at all, serial fraction 1. *)
  let a =
    analyze
      [ level ~jobs:1 ~elapsed_s:1.0 (); level ~jobs:4 ~elapsed_s:1.0 () ]
  in
  (match a.Scaling.a_serial_fraction with
  | Some s -> check "serial fraction ~1" true (abs_float (s -. 1.) < 1e-9)
  | None -> Alcotest.fail "no serial fraction fitted");
  let _, d4 = List.nth a.Scaling.a_levels 1 in
  check "lost domain-seconds" true (abs_float (d4.Scaling.d_lost_s -. 3.) < 1e-9)

let test_scaling_single_level () =
  let a = analyze [ level ~jobs:2 ~elapsed_s:0.5 () ] in
  check "single level: no fit" true (a.Scaling.a_serial_fraction = None);
  check_int "reference is itself" 2 a.Scaling.a_reference_jobs;
  check "analyze [] errors" true
    (Result.is_error (Scaling.analyze ~program:"toy" []));
  check "duplicate jobs rejected" true
    (Result.is_error
       (Scaling.analyze ~program:"toy"
          [ level ~jobs:2 ~elapsed_s:0.5 (); level ~jobs:2 ~elapsed_s:0.6 () ]))

let test_scaling_loss_centers () =
  let slow =
    { (level ~jobs:4 ~elapsed_s:1.0 ()) with
      Scaling.v_queue_wait_us = 2_000_000;
      v_snapshot_us = 500_000;
      v_merge_us = 100_000;
    }
  in
  let a = analyze [ level ~jobs:1 ~elapsed_s:1.0 (); slow ] in
  (match a.Scaling.a_loss_centers with
  | (top_name, top_s) :: _ ->
      check_str "queue-wait dominates" "engine/queue_wait" top_name;
      check "2 seconds charged" true (abs_float (top_s -. 2.) < 1e-9)
  | [] -> Alcotest.fail "no loss centers");
  check "residual labelled other" true
    (List.mem_assoc "other" a.Scaling.a_loss_centers)

let test_scaling_check () =
  let l1 = level ~jobs:1 ~elapsed_s:1.0 () in
  let l4 = level ~jobs:4 ~elapsed_s:0.9 () in
  check "matching projections pass" true
    (Scaling.check ~program:"toy" [ l1; l4 ] = Ok ());
  let diverged = { l4 with Scaling.v_races = 5 } in
  (match Scaling.check ~program:"toy" [ l1; diverged ] with
  | Error msg ->
      check "divergence names the field" true
        (let re = Str.regexp_string "races" in
         try ignore (Str.search_forward re msg 0); true
         with Not_found -> false)
  | Ok () -> Alcotest.fail "diverging races passed the check");
  (* Timing may differ arbitrarily without tripping the check. *)
  let slow = { l4 with Scaling.v_elapsed_s = 99.; v_gc_minor_words = 123 } in
  check "timing divergence tolerated" true
    (Scaling.check ~program:"toy" [ l1; slow ] = Ok ())

let test_scaling_fields_projection () =
  let l = level ~jobs:2 ~elapsed_s:0.5 () in
  let a = analyze [ l ] in
  let pair = List.hd a.Scaling.a_levels in
  let full = Scaling.fields ~program:"toy" pair in
  let proj = Scaling.fields ~timing:false ~program:"toy" pair in
  (* The projection is a strict prefix of the full row. *)
  check_int "projection size" 10 (List.length proj);
  check "projection is a prefix" true
    (List.filteri (fun i _ -> i < List.length proj) full = proj);
  check "full row carries timing" true (List.mem_assoc "efficiency" full);
  check "projection does not" true (not (List.mem_assoc "elapsed_s" proj));
  (* Both encode as valid flat JSON. *)
  check "full encodes" true (Result.is_ok (Json.decode_obj (Json.encode_obj full)));
  check "proj encodes" true (Result.is_ok (Json.decode_obj (Json.encode_obj proj)))

(* ------------------------------------------------------------------ *)
(* The crux, end to end: jobs 1 vs 4 non-timing byte-identity           *)

let run_level ~jobs p =
  let open Pm_corpus.Telemetry in
  with_session { off with attribution = true } (fun () ->
      scaling_level (measure ~jobs p))

let test_projection_jobs_identity () =
  let p = Pm_benchmarks.Memcached.program in
  let l1 = run_level ~jobs:1 p in
  let l4 = run_level ~jobs:4 p in
  (match Scaling.check ~program:"Memcached" [ l1; l4 ] with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "projection diverged: %s" msg);
  (* Byte-level: encode both projections minus the jobs field. *)
  let zero =
    { Scaling.d_speedup = 0.; d_efficiency = 0.; d_serial_fraction = None;
      d_lost_s = 0. }
  in
  let line l =
    Json.encode_obj
      (List.filter
         (fun (k, _) -> k <> "jobs")
         (Scaling.fields ~timing:false ~program:"Memcached" (l, zero)))
  in
  check_str "byte-identical projection at jobs 1 and 4" (line l1) (line l4);
  check "the run found races" true (l1.Scaling.v_races > 0)

let () =
  Alcotest.run "scaling"
    [
      ( "timeline",
        [
          Alcotest.test_case "busy/wait/idle classification" `Quick
            test_timeline_classification;
          Alcotest.test_case "out-of-order events" `Quick
            test_timeline_out_of_order;
          Alcotest.test_case "0-us parent/child spans" `Quick
            test_timeline_zero_length_spans;
          Alcotest.test_case "single-lane trace" `Quick test_timeline_single_lane;
          Alcotest.test_case "top-level fallback" `Quick
            test_timeline_top_level_fallback;
          Alcotest.test_case "empty trace rejected" `Quick
            test_timeline_empty_rejected;
          Alcotest.test_case "ascii chart" `Quick test_timeline_ascii;
          Alcotest.test_case "svg well-formedness" `Quick
            test_timeline_svg_well_formed;
          Alcotest.test_case "lane JSONL" `Quick test_timeline_lane_fields_flat;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "perfect scaling" `Quick test_scaling_perfect;
          Alcotest.test_case "flat scaling" `Quick test_scaling_flat;
          Alcotest.test_case "single level" `Quick test_scaling_single_level;
          Alcotest.test_case "loss centers" `Quick test_scaling_loss_centers;
          Alcotest.test_case "determinism check" `Quick test_scaling_check;
          Alcotest.test_case "field projection" `Quick
            test_scaling_fields_projection;
        ] );
      ( "engine",
        [
          Alcotest.test_case "jobs 1v4 projection byte-identity" `Quick
            test_projection_jobs_identity;
        ] );
    ]
