(* Tests for the crash-testing harness: flush-point counting, the
   model-checking and random modes, report deduplication and benign
   accounting. *)

open Pm_runtime
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Scenario = Pm_harness.Scenario

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A toy program with one racy field and one safe (atomic) field. *)
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

let model_check ?options p = (Runner.model_check_outcome ?options p).Runner.o_report
let model_check_recovery p = (Runner.model_check_recovery_outcome p).Runner.o_report
let random_mode ~execs p = (Runner.random_mode_outcome ~execs p).Runner.o_report

let test_count_flush_points () =
  (* pre has exactly clflush + mfence. *)
  check_int "two flush points" 2 (Runner.count_flush_points toy)

let test_model_check_toy () =
  let r = model_check toy in
  check_int "3 executions (2 points + at-end)" 3 r.Report.executions;
  Alcotest.(check (list string)) "only the racy field" [ "racy" ]
    (List.map (fun (f : Report.finding) -> f.Report.label) (Report.real r))

(* A torn post-crash read spanning two executions.  Setup's [wide]
   commits after 50 other stores (a high seq); pre's unflushed [half]
   overwrites its upper bytes as pre's first store (seq 1).  The load
   reads [half]'s bytes, so [half] is the store it races with. *)
let torn_across_executions =
  Program.make ~name:"torn-across-executions"
    ~setup:(fun () ->
      let a = Pmem.alloc ~align:64 64 in
      for i = 1 to 50 do
        Pmem.store (a + 16) (Int64.of_int i)
      done;
      Pmem.store ~label:"wide" a 1L;
      Pmem.set_root 0 a)
    ~pre:(fun () -> Pmem.store ~label:"half" ~size:4 (Pmem.get_root 0 + 4) 2L)
    ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
    ()

let test_torn_read_across_executions () =
  Alcotest.(check (list string)) "the race is on half" [ "half" ]
    (List.map (fun (f : Report.finding) -> f.Report.label)
       (Report.real (model_check torn_across_executions)))

let test_run_once_no_crash_no_post () =
  (* A targeted plan beyond the program's flush points never fires: no
     crash, no recovery, no races. *)
  let d, pre, post = Runner.run_once ~plan:(Executor.Crash_before_flush 99) toy in
  check "completed" true (pre.Executor.outcome = Executor.Completed);
  check "no post" true (post = None);
  check_int "no races" 0 (List.length (Yashme.Detector.races d))

let test_random_mode_runs () =
  let r = random_mode ~execs:5 toy in
  check_int "five executions" 5 r.Report.executions;
  check "finds the race eventually" true
    (List.exists (fun (f : Report.finding) -> f.Report.label = "racy") r.Report.findings)

let test_random_mode_deterministic () =
  let a = random_mode ~execs:3 toy in
  let b = random_mode ~execs:3 toy in
  check_int "same raw count" a.Report.raw_races b.Report.raw_races

let test_baseline_leq_prefix_on_suite () =
  let opts mode = { Runner.default_options with mode } in
  let p = Pm_benchmarks.Cceh.program in
  let rp = model_check ~options:(opts Yashme.Detector.Prefix) p in
  let rb = model_check ~options:(opts Yashme.Detector.Baseline) p in
  check "baseline finds no more than prefix" true
    (List.length (Report.real rb) <= List.length (Report.real rp))

(* A recovery procedure with its own persistency race: the repair
   marker is checked then set; only a crash inside the recovery (a
   two-crash scenario) exposes it to the next recovery. *)
let buggy_recovery =
  Program.make ~name:"buggy-recovery"
    ~setup:(fun () ->
      let a = Pmem.alloc ~align:64 16 in
      Pmem.set_root 0 a)
    ~pre:(fun () ->
      let a = Pmem.get_root 0 in
      Pmem.store ~label:"data" a 1L;
      Pmem.clflush a;
      Pmem.mfence ())
    ~post:(fun () ->
      let a = Pmem.get_root 0 in
      ignore (Pmem.load a);
      if Pmem.load (a + 8) = 0L then begin
        Pmem.store ~label:"repair-marker" (a + 8) 1L;
        Pmem.clflush (a + 8);
        Pmem.mfence ()
      end)
    ()

let test_recovery_race_needs_two_crashes () =
  let labels r =
    List.map (fun (f : Report.finding) -> f.Report.label) (Report.real r)
  in
  let single = labels (model_check buggy_recovery) in
  let double = labels (model_check_recovery buggy_recovery) in
  check "single-crash misses the recovery race" false
    (List.mem "repair-marker" single);
  check "two-crash finds it" true (List.mem "repair-marker" double);
  check "two-crash also finds the pre-crash race" true (List.mem "data" double)

let test_recovery_mc_on_clean_recovery () =
  (* The toy program's recovery only reads — it has no flush points, so
     there are no two-crash scenarios to explore and nothing to report
     (single-crash findings come from [model_check_outcome]). *)
  let r = model_check_recovery toy in
  check_int "no crashy-recovery executions" 0 r.Report.executions;
  check_int "no findings" 0 (List.length r.Report.findings)

(* ------------------------------------------------------------------ *)
(* Trace + witness                                                      *)

let test_trace_records_commits () =
  let trace, observer = Px86.Trace.recorder () in
  let _ =
    Executor.run ~observer ~exec_id:0 (fun () ->
        let a = Pmem.alloc ~align:64 8 in
        Pmem.store a 1L;
        Pmem.clflush a;
        Pmem.mfence ();
        Pmem.store a 2L;
        Pmem.clwb a;
        Pmem.sfence ())
  in
  let entries = Px86.Trace.entries trace in
  let count f = List.length (List.filter f entries) in
  check_int "two stores" 2 (count (function Px86.Trace.Store _ -> true | _ -> false));
  check_int "one clflush" 1 (count (function Px86.Trace.Clflush _ -> true | _ -> false));
  check_int "one clwb applied" 1
    (count (function Px86.Trace.Clwb_applied _ -> true | _ -> false))

let test_trace_prefix_filter () =
  let trace, observer = Px86.Trace.recorder () in
  let _ =
    Executor.run ~observer ~exec_id:0 (fun () ->
        let a = Pmem.alloc ~align:64 16 in
        Pmem.store a 1L;
        Pmem.store (a + 8) 2L)
  in
  (* A CVpre covering only the first store's clock. *)
  let cvpre = Yashme_util.Clockvec.of_list [ (0, 1) ] in
  check_int "prefix stops at CVpre" 1 (List.length (Px86.Trace.prefix trace ~cvpre))

let test_witness_renders () =
  let detector, trace =
    Runner.run_once_traced ~plan:Executor.Crash_at_end toy
  in
  match Yashme.Detector.races detector with
  | [] -> Alcotest.fail "expected a race on the toy program"
  | race :: _ ->
      let w = Pm_harness.Witness.explain ~trace ~detector ~race () in
      check "mentions the racing field" true
        (String.length w > 100
        &&
        let rec contains i =
          i + 4 <= String.length w && (String.sub w i 4 = "racy" || contains (i + 1))
        in
        contains 0)

(* The witness shows the prefix the detector checked: for every race of
   every registry program at every crash point, no flush the pre-crash
   run recorded for the racing store lies inside the rendered E+ (a
   flush inside it would have persisted the store in the prefix). *)
let test_witness_prefix_excludes_flushes () =
  let races = ref 0 in
  List.iter
    (fun (p : Program.t) ->
      let points = Runner.count_flush_points p in
      List.iter
        (fun plan ->
          let detector, _ = Runner.run_once_traced ~plan p in
          List.iter
            (fun (race : Yashme.Race.t) ->
              incr races;
              let store = race.Yashme.Race.store in
              match
                ( Yashme.Detector.record detector ~id:race.Yashme.Race.store_exec,
                  Pm_harness.Witness.prefix_bound ~detector ~race )
              with
              | Some record, Some eplus ->
                  List.iter
                    (fun (fe : Yashme.Exec_record.flush_entry) ->
                      if
                        fe.Yashme.Exec_record.fe_lclk
                        <= Yashme_util.Clockvec.get eplus fe.Yashme.Exec_record.fe_tid
                      then
                        Alcotest.failf "%s %s: a flush of seq %d lies inside E+ %s"
                          p.Program.name (Executor.plan_label plan) store.Px86.Event.seq
                          (Format.asprintf "%a" Yashme_util.Clockvec.pp eplus))
                    (Yashme.Exec_record.flushes_of record store.Px86.Event.seq)
              | None, _ | _, None ->
                  Alcotest.failf "%s: the racing store's execution has no record"
                    p.Program.name)
            (Yashme.Detector.races detector))
        (List.init points (fun n -> Executor.Crash_before_flush n) @ [ Executor.Crash_at_end ]))
    Pm_benchmarks.Registry.all;
  check "races checked" true (!races > 0)

(* ------------------------------------------------------------------ *)
(* Report                                                               *)

let mk_race ?(benign = false) label =
  let store =
    { Px86.Event.seq = 1; tid = 0; lclk = 1; cv = Yashme_util.Clockvec.empty; addr = 0;
      size = 8; value = 0L; access = Px86.Access.Plain; nt = false; label = Some label }
  in
  { Yashme.Race.store; store_exec = 0; load_addr = 0; load_size = 8; load_tid = 0;
    load_exec = 1; committed = true; benign }

let test_dedup_by_label () =
  let r =
    Report.dedup ~program:"p" ~executions:1
      [ mk_race "a"; mk_race "a"; mk_race "b" ]
  in
  check_int "two findings" 2 (List.length r.Report.findings);
  check_int "raw count" 3 r.Report.raw_races;
  let a = List.find (fun (f : Report.finding) -> f.Report.label = "a") r.Report.findings in
  check_int "a seen twice" 2 a.Report.count

let test_benign_only_if_all_benign () =
  let r =
    Report.dedup ~program:"p" ~executions:1
      [ mk_race ~benign:true "a"; mk_race ~benign:false "a"; mk_race ~benign:true "b" ]
  in
  let find l = List.find (fun (f : Report.finding) -> f.Report.label = l) r.Report.findings in
  check "mixed label is real" false (find "a").Report.benign;
  check "all-benign label is benign" true (find "b").Report.benign;
  check_int "real list" 1 (List.length (Report.real r));
  check_int "benign list" 1 (List.length (Report.benign r))

let test_report_renders () =
  let r = Report.dedup ~program:"p" ~executions:2 [ mk_race "a" ] in
  let s = Report.to_string r in
  check "mentions program" true (String.length s > 0 && s.[0] = 'p')

(* The [variant] line is rendered ONLY for non-default variants, so
   every report and witness ever produced under the default model stays
   byte-identical. *)
let test_report_variant_line () =
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let default_r = Report.dedup ~program:"p" ~executions:2 [ mk_race "a" ] in
  check "default report has no variant line" false
    (contains (Report.to_string default_r) "[variant");
  let r =
    Report.dedup ~program:"p" ~variant:"fence-nop" ~executions:2
      [ mk_race "a" ]
  in
  check "non-default report names its variant" true
    (contains (Report.to_string r) "[variant fence-nop]");
  (* An explicit strict-tso label is the default: still no line. *)
  let r' =
    Report.dedup ~program:"p" ~variant:Px86.Variant.default_label ~executions:2
      [ mk_race "a" ]
  in
  Alcotest.(check string)
    "explicit strict-tso renders byte-identically"
    (Report.to_string default_r) (Report.to_string r');
  (* Same contract for the witness explanation. *)
  let detector, trace =
    Runner.run_once_traced ~plan:Executor.Crash_at_end toy
  in
  match Yashme.Detector.races detector with
  | [] -> Alcotest.fail "expected a race on the toy program"
  | race :: _ ->
      let plain = Pm_harness.Witness.explain ~trace ~detector ~race () in
      let strict =
        Pm_harness.Witness.explain ~variant:Px86.Variant.default_label ~trace
          ~detector ~race ()
      in
      let nop =
        Pm_harness.Witness.explain ~variant:"fence-nop" ~trace ~detector ~race
          ()
      in
      Alcotest.(check string) "explain: default == strict-tso" plain strict;
      check "explain: fence-nop adds the line" true
        (contains nop "[variant fence-nop]")

(* Composed options round-trip through the corpus field codec for every
   built-in variant (the pre-variant default path is covered by the
   corpus v1-compat test). *)
let test_options_fields_variant_roundtrip () =
  List.iter
    (fun (name, v, _) ->
      let o = { Scenario.default_options with Scenario.variant = v; seed = 9 } in
      match Scenario.options_of_fields (Scenario.options_fields o) with
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
      | Ok o' ->
          check (name ^ " options round-trip") true (o = o'))
    Px86.Variant.builtins;
  match
    Scenario.options_of_fields
      (("variant", `S "no-such-model")
      :: List.remove_assoc "variant"
           (Scenario.options_fields Scenario.default_options))
  with
  | Ok _ -> Alcotest.fail "unknown variant label must be rejected"
  | Error msg ->
      check "error names the label" true
        (let n = String.length msg in
         let rec go i =
           i + 13 <= n && (String.sub msg i 13 = "no-such-model" || go (i + 1))
         in
         go 0)

let test_unlabelled_dedup () =
  let store =
    { Px86.Event.seq = 1; tid = 0; lclk = 1; cv = Yashme_util.Clockvec.empty; addr = 4;
      size = 8; value = 0L; access = Px86.Access.Plain; nt = false; label = None }
  in
  let race =
    { Yashme.Race.store; store_exec = 0; load_addr = 4; load_size = 8; load_tid = 0;
      load_exec = 1; committed = true; benign = false }
  in
  Alcotest.(check string) "unlabelled key" "<unlabelled>" (Yashme.Race.dedup_key race)

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "count flush points" `Quick test_count_flush_points;
          Alcotest.test_case "model check toy" `Quick test_model_check_toy;
          Alcotest.test_case "torn read across executions" `Quick
            test_torn_read_across_executions;
          Alcotest.test_case "plan misses -> no post" `Quick test_run_once_no_crash_no_post;
          Alcotest.test_case "random mode" `Quick test_random_mode_runs;
          Alcotest.test_case "random deterministic" `Quick test_random_mode_deterministic;
          Alcotest.test_case "baseline <= prefix" `Quick test_baseline_leq_prefix_on_suite;
        ] );
      ( "multi-crash",
        [
          Alcotest.test_case "recovery race needs two crashes" `Slow
            test_recovery_race_needs_two_crashes;
          Alcotest.test_case "clean recovery" `Slow test_recovery_mc_on_clean_recovery;
        ] );
      ( "trace-witness",
        [
          Alcotest.test_case "trace records commits" `Quick test_trace_records_commits;
          Alcotest.test_case "trace prefix filter" `Quick test_trace_prefix_filter;
          Alcotest.test_case "witness renders" `Quick test_witness_renders;
          Alcotest.test_case "witness prefix holds no flush of the store" `Quick
            test_witness_prefix_excludes_flushes;
        ] );
      ( "report",
        [
          Alcotest.test_case "dedup by label" `Quick test_dedup_by_label;
          Alcotest.test_case "benign accounting" `Quick test_benign_only_if_all_benign;
          Alcotest.test_case "renders" `Quick test_report_renders;
          Alcotest.test_case "variant line only when non-default" `Quick
            test_report_variant_line;
          Alcotest.test_case "options variant round-trip" `Quick
            test_options_fields_variant_roundtrip;
          Alcotest.test_case "unlabelled key" `Quick test_unlabelled_dedup;
        ] );
    ]
