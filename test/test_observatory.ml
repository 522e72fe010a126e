(* Tests for the engine observatory: per-scenario cost attribution
   (jobs-invariant projection, serialization) and the durable run
   ledger (schema round-trip, version gate, run comparison, file
   store).  The crux contract is asserted end to end: the attribution
   invariant projection is byte-identical across --jobs counts, and
   two identical-config ledger entries compare with zero non-timing
   deltas. *)

module Attribution = Observe.Attribution
module Ledger = Observe.Ledger
module Metrics = Observe.Metrics
module Log = Observe.Log
module Progress = Observe.Progress
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

(* Every test leaves the global observe state as it found it. *)
let quiesce () =
  Metrics.disable ();
  Metrics.reset ();
  Log.set_quiet false;
  ignore (Progress.stop ())

let attribution () = Attribution.rows (Metrics.cells ())

(* The attribution table in its exported JSONL form: the byte string
   the jobs-invariance contract quantifies over. *)
let attribution_jsonl rows =
  String.concat "\n" (List.map (fun r -> Json.encode_obj (Attribution.fields r)) rows)

(* ------------------------------------------------------------------ *)
(* Attribution                                                          *)

let test_attribution_disabled_is_noop () =
  quiesce ();
  let c = Metrics.center ~units:"ops" "test/noop" in
  Metrics.add c 3;
  Metrics.charge c ~units:7 ~wall_us:11;
  Metrics.incr c;
  check_int "nothing recorded while disabled" 0 (List.length (attribution ()));
  quiesce ()

let test_attribution_accumulates_and_merges () =
  quiesce ();
  Metrics.enable ();
  let c = Metrics.center ~units:"bytes" "test/merge" in
  (* charges from two domains land on different shards and sum on read *)
  let work () =
    for _ = 1 to 5 do
      Metrics.charge c ~units:10 ~wall_us:2
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  (match attribution () with
  | [ r ] ->
      check_str "center name" "test/merge" r.name;
      check_int "counts sum across domains" 10 r.count;
      check_int "units sum across domains" 100 r.units;
      check_int "wall sums across domains" 20 r.wall_us
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  quiesce ()

let test_attribution_diff_and_registry () =
  quiesce ();
  Metrics.enable ();
  (* the registry is find-or-create: same name, same cells *)
  let a = Metrics.center ~units:"ops" "test/diff" in
  let a' = Metrics.center "test/diff" in
  Metrics.charge a ~units:5 ~wall_us:0;
  Metrics.charge a' ~units:5 ~wall_us:0;
  let (), d =
    Metrics.window (fun () ->
        Metrics.incr a;
        Metrics.charge a ~units:3 ~wall_us:0)
  in
  (match Attribution.rows d with
  | [ r ] ->
      check_int "diff count" 2 r.count;
      check_int "diff units" 3 r.units
  | rows -> Alcotest.failf "expected one delta row, got %d" (List.length rows));
  check "no-change diff is empty" true
    (Attribution.rows (snd (Metrics.window ignore)) = []);
  quiesce ()

let test_attribution_fields_roundtrip () =
  let center units_label volatile_units = Metrics.Center { units_label; volatile_units } in
  let row =
    {
      Metrics.name = "px86/snapshot_copy";
      kind = center "bytes" false;
      count = 82;
      units = 465760;
      wall_us = 1234;
      max = 0;
    }
  in
  (match Attribution.of_fields (Attribution.fields row) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check_str "center" row.name r.name;
      check_int "count" row.count r.count;
      check_int "units" row.units r.units;
      (* wall clocks are deliberately not serialized *)
      check_int "wall not serialized" 0 r.wall_us);
  (* volatile units encode as null and decode back as volatile *)
  let gc = { row with name = "gc/minor"; kind = center "words" true } in
  (match Attribution.of_fields (Attribution.fields gc) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check "volatile flag survives" true (r.kind = center "words" true);
      check_int "volatile units drop to zero" 0 r.units);
  match Attribution.of_fields [ ("bench", `S "CCEH") ] with
  | Ok _ -> Alcotest.fail "non-attribution row accepted"
  | Error _ -> ()

(* Runs [p] at jobs 1 and 4, checks that the two invariant projections
   are byte-identical, and returns both reports and the jobs-1 rows. *)
let jobs_invariant (p : Program.t) =
  let name = p.Program.name in
  quiesce ();
  Metrics.enable ();
  let o1 = Runner.model_check_outcome ~jobs:1 p in
  let r1 = attribution () in
  Metrics.reset ();
  let o4 = Runner.model_check_outcome ~jobs:4 p in
  let r4 = attribution () in
  quiesce ();
  check (name ^ " charged something") true (r1 <> []);
  check (name ^ ": engine work recorded") true
    (List.exists (fun (r : Attribution.row) -> r.name = "engine/work") r1);
  check_str (name ^ ": invariant projection byte-identical for jobs=1 vs jobs=4")
    (Attribution.to_string ~timing:false r1)
    (Attribution.to_string ~timing:false r4);
  check_str (name ^ ": exported JSONL byte-identical for jobs=1 vs jobs=4")
    (attribution_jsonl r1) (attribution_jsonl r4);
  (o1.Runner.o_report, o4.Runner.o_report, r1)

let test_attribution_jobs_invariant () =
  let _, _, toy_rows = jobs_invariant toy in
  check "snapshot copying recorded" true
    (List.exists
       (fun (r : Attribution.row) -> r.name = "px86/snapshot_copy")
       toy_rows)

(* End to end on a Registry program that raises races: the report and
   the cost-center projection are byte-identical at jobs 1 and 4. *)
let test_engine_jobs_identity () =
  let report1, report4, _ = jobs_invariant Pm_benchmarks.Memcached.program in
  check_str "report byte-identical for jobs=1 vs jobs=4"
    (Report.to_string report1) (Report.to_string report4);
  check "Memcached raises races" true (Report.real report1 <> [])

let test_report_identical_with_attribution_on () =
  quiesce ();
  let plain =
    Report.to_string (Runner.model_check_outcome ~jobs:2 toy).Runner.o_report
  in
  Metrics.enable ();
  let loud =
    Report.to_string (Runner.model_check_outcome ~jobs:2 toy).Runner.o_report
  in
  check_str "race report byte-identical with attribution on" plain loud;
  quiesce ()

(* The per-scenario GC charge is the worker domain's own allocation.
   Each run of [waits]'s pre-crash phase waits, allocating nothing,
   while another domain allocates [target] words; the batch's gc/minor
   units stay far below what that domain allocated. *)
let test_gc_charge_is_per_domain () =
  quiesce ();
  let target = 10_000_000 in
  let stop = Atomic.make false and words = Atomic.make 0 in
  let allocator =
    Domain.spawn (fun () ->
        let w0 = Gc.minor_words () in
        while not (Atomic.get stop) do
          ignore (Sys.opaque_identity (Array.make 64 0));
          Atomic.set words (int_of_float (Gc.minor_words () -. w0))
        done)
  in
  let waits =
    Program.make ~name:"waits"
      ~setup:(fun () -> Pmem.set_root 0 (Pmem.alloc ~align:64 8))
      ~pre:(fun () ->
        Pmem.store (Pmem.get_root 0) 1L;
        let w0 = Atomic.get words in
        while Atomic.get words - w0 < target do
          Domain.cpu_relax ()
        done)
      ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
      ()
  in
  Metrics.enable ();
  let (), cells =
    Metrics.window (fun () -> ignore (Runner.model_check_outcome ~jobs:1 waits))
  in
  Atomic.set stop true;
  Domain.join allocator;
  let allocated = Atomic.get words in
  match
    List.find_opt
      (fun (r : Attribution.row) -> r.name = "gc/minor")
      (Attribution.rows cells)
  with
  | None -> Alcotest.fail "no gc/minor charge"
  | Some r ->
      check
        (Printf.sprintf "gc/minor %d words, far below the other domain's %d"
           r.units allocated)
        true
        (allocated >= target && r.units * 10 < allocated);
      quiesce ()

(* ------------------------------------------------------------------ *)
(* Ledger schema                                                        *)

let entry =
  {
    Ledger.e_version = Ledger.version;
    e_run = "r1";
    e_ts = 1754600000.25;
    e_program = "CCEH";
    e_variant = "strict-tso";
    e_mode = "mc";
    e_jobs = 2;
    e_seed = 1;
    e_scenarios = 81;
    e_completed = 81;
    e_faulted = 0;
    e_diverged = 0;
    e_executions = 162;
    e_ops = 20054;
    e_races = 2;
    e_benign = 0;
    e_raw_races = 1452;
    e_recovery_failures = 0;
    e_witnesses = 2;
    e_elapsed_s = 0.05;
    e_cpu_s = 0.09;
    e_metrics_digest = "00baadf00dbaad00";
    e_coverage_digest = "00c0ffeec0ffee00";
    e_cost =
      [
        { Ledger.c_center = "engine/work"; c_count = 81; c_units = 162;
          c_wall_us = 5000 };
        { Ledger.c_center = "px86/snapshot_copy"; c_count = 82;
          c_units = 465760; c_wall_us = 0 };
      ];
  }

(* Armed telemetry reads the worker's GC counters before and after each
   scenario and keeps the first reading across the scenario's run.  A
   reading whose floats a minor collection left unrooted crashed the
   collector once the scenario collected; tiny minor heaps make
   collections land inside the reading. *)
let test_gc_reading_survives_collections () =
  quiesce ();
  let flushes =
    Program.make ~name:"flushes"
      ~setup:(fun () -> Pmem.set_root 0 (Pmem.alloc ~align:64 8))
      ~pre:(fun () ->
        let a = Pmem.get_root 0 in
        for i = 1 to 20 do
          Pmem.store ~label:"x" a (Int64.of_int i);
          Pmem.clflush a;
          Pmem.mfence ()
        done)
      ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
      ()
  in
  let saved = Gc.get () in
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      List.iter
        (fun words ->
          Gc.set { saved with Gc.minor_heap_size = words };
          for _ = 1 to 20 do
            ignore (Runner.model_check_outcome ~jobs:1 flushes)
          done)
        (List.init 16 (fun k -> 256 + (k * 97))));
  check "gc/minor charged" true
    (List.exists (fun (r : Attribution.row) -> r.name = "gc/minor") (attribution ()));
  quiesce ()

let test_ledger_roundtrip () =
  (* entry -> fields -> JSONL -> fields -> entry, through the same
     codec the store uses *)
  let line = Json.encode_obj (Ledger.fields entry) in
  match Json.decode_obj line with
  | Error e -> Alcotest.fail e
  | Ok fields -> (
      match Ledger.of_fields fields with
      | Error e -> Alcotest.fail e
      | Ok e -> check "round-trip is the identity" true (e = entry))

let test_ledger_version_gate () =
  let newer =
    ("v", `I 99)
    :: List.filter (fun (k, _) -> k <> "v") (Ledger.fields entry)
  in
  (match Ledger.of_fields newer with
  | Ok _ -> Alcotest.fail "future-version line accepted"
  | Error e ->
      check "error names the version skew" true
        (String.length e > 0
        && Str.string_match (Str.regexp ".*newer.*") e 0));
  match Ledger.of_fields [ ("v", `I 0) ] with
  | Ok _ -> Alcotest.fail "version 0 accepted"
  | Error _ -> ()

let test_ledger_digests () =
  (* FNV-1a hashes every byte; sorting makes shard order irrelevant *)
  check_str "counter digest is order-independent"
    (Ledger.digest_counters [ ("a", 1); ("b", 2) ])
    (Ledger.digest_counters [ ("b", 2); ("a", 1) ]);
  check "distinct counters, distinct digests" true
    (Ledger.digest_counters [ ("a", 1) ]
    <> Ledger.digest_counters [ ("a", 2) ]);
  check_int "digest is 16 hex chars" 16
    (String.length (Ledger.digest_string "x"));
  (* long inputs differing only late still differ (Hashtbl.hash
     would sample a prefix and collide) *)
  let long tail = String.make 4096 'y' ^ tail in
  check "late bytes reach the digest" true
    (Ledger.digest_string (long "a") <> Ledger.digest_string (long "b"))

let test_ledger_field_classes () =
  check "ts is timing" true (Ledger.timing_field "ts");
  check "wall_us cost columns are timing" true
    (Ledger.timing_field "cc:engine/work:wall_us");
  check "gc charges are timing" true
    (Ledger.timing_field "cc:gc/minor:units");
  check "snapshot bytes are not timing" true
    (not (Ledger.timing_field "cc:px86/snapshot_copy:units"));
  check "races gate higher-is-better" true (Ledger.direction "races" = `Higher);
  check "scenarios gate neutrally" true
    (Ledger.direction "scenarios" = `Neutral);
  check "run is identity" true (Ledger.identity_field "run")

(* ------------------------------------------------------------------ *)
(* Ledger store                                                         *)

let with_temp_ledger f =
  let tmp = Filename.temp_file "yashme_ledger" ".jsonl" in
  Sys.remove tmp;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () -> f tmp)

let test_store_roundtrip_and_find () =
  with_temp_ledger (fun tmp ->
      Ledger.append tmp entry;
      Ledger.append tmp { entry with Ledger.e_run = "r2"; e_jobs = 4 };
      match Ledger.load tmp with
      | Error e -> Alcotest.fail e
      | Ok entries ->
          check_int "both runs load" 2 (List.length entries);
          check "first run survives append" true (List.hd entries = entry);
          (match Ledger.find entries "2" with
          | Ok e -> check_str "ordinal selects" "r2" e.Ledger.e_run
          | Error e -> Alcotest.fail e);
          (match Ledger.find entries "r1" with
          | Ok e -> check_int "label selects" 2 e.Ledger.e_jobs
          | Error e -> Alcotest.fail e);
          (match Ledger.find entries "9" with
          | Ok _ -> Alcotest.fail "out-of-range ordinal accepted"
          | Error _ -> ());
          match Ledger.find entries "nope" with
          | Ok _ -> Alcotest.fail "unknown label accepted"
          | Error _ -> ())

let test_store_positioned_errors () =
  with_temp_ledger (fun tmp ->
      (match Ledger.load tmp with
      | Ok _ -> Alcotest.fail "missing ledger accepted"
      | Error _ -> ());
      (* an empty ledger names its path exactly once *)
      Out_channel.with_open_bin tmp ignore;
      (match Ledger.load tmp with
      | Ok _ -> Alcotest.fail "empty ledger accepted"
      | Error e -> check_str "path named once" (tmp ^ ":1: empty ledger") e);
      (* a future-version first line is a positioned decode error *)
      let oc = open_out tmp in
      output_string oc "{\"v\":99,\"run\":\"future\"}\n";
      close_out oc;
      (match Ledger.load tmp with
      | Ok _ -> Alcotest.fail "future-version ledger accepted"
      | Error e ->
          check "error is positioned" true
            (Str.string_match (Str.regexp (Str.quote tmp ^ ":1:.*newer.*")) e 0));
      (* a bad line after a good one is positioned at line 2 *)
      let oc = open_out tmp in
      output_string oc (Json.encode_obj (Ledger.fields entry));
      output_string oc "\nnot json\n";
      close_out oc;
      match Ledger.load tmp with
      | Ok _ -> Alcotest.fail "garbage second line accepted"
      | Error e ->
          check "second line positioned" true
            (Str.string_match (Str.regexp (Str.quote tmp ^ ":2:")) e 0))

(* ------------------------------------------------------------------ *)
(* Comparison                                                           *)

let test_compare_identical_runs () =
  (* identical configuration, different wall clocks: the acceptance
     contract — zero non-timing deltas, PASS *)
  let current =
    { entry with Ledger.e_run = "r2"; e_ts = 1754600100.5; e_elapsed_s = 0.07;
      e_cpu_s = 0.11 }
  in
  let c = Ledger.compare_runs ~baseline:entry ~current in
  check "identical-config compare passes" true c.Ledger.cmp_passed;
  check_int "no non-timing deltas" 0 (List.length c.Ledger.cmp_changed);
  check_int "no string mismatches" 0
    (List.length c.Ledger.cmp_mismatched);
  check "timing deltas are informational" true
    (List.for_all
       (fun d -> not d.Ledger.d_regressed)
       c.Ledger.cmp_timing);
  let rendered = Ledger.render ~a_label:"r1" ~b_label:"r2" c in
  check "render reports a clean compare" true
    (Str.string_match (Str.regexp ".*no non-timing deltas.*") rendered 0
     || String.length rendered > 0);
  check "render says PASS" true
    (Str.string_match (Str.regexp ".*ledger compare: PASS.*")
       (String.concat " " (String.split_on_char '\n' rendered)) 0)

let test_compare_direction_aware () =
  (* losing a race finding is the regression the gate exists for *)
  let fewer = { entry with Ledger.e_run = "r2"; e_races = 1 } in
  let c = Ledger.compare_runs ~baseline:entry ~current:fewer in
  check "lost race fails" true (not c.Ledger.cmp_passed);
  (match c.Ledger.cmp_changed with
  | [ d ] ->
      check_str "races flagged" "races" d.Ledger.d_field;
      check "flagged as regression" true d.Ledger.d_regressed
  | l -> Alcotest.failf "expected one delta, got %d" (List.length l));
  (* gaining one is a change, not a regression *)
  let more = { entry with Ledger.e_run = "r2"; e_races = 3 } in
  let c = Ledger.compare_runs ~baseline:entry ~current:more in
  check "gained race is not a regression" true
    (List.for_all
       (fun d -> not d.Ledger.d_regressed)
       c.Ledger.cmp_changed);
  (* but still fails the zero-delta gate *)
  check "gained race still fails zero-delta gate" true
    (not c.Ledger.cmp_passed);
  (* a neutral config delta (jobs) is a change, never a regression *)
  let j4 = { entry with Ledger.e_run = "r2"; e_jobs = 4 } in
  let c = Ledger.compare_runs ~baseline:entry ~current:j4 in
  check "neutral delta flagged" true
    (List.exists (fun d -> d.Ledger.d_field = "jobs")
       c.Ledger.cmp_changed);
  check "neutral delta never regresses" true
    (List.for_all
       (fun d -> not d.Ledger.d_regressed)
       c.Ledger.cmp_changed)

let test_compare_mismatched_config () =
  let other =
    { entry with Ledger.e_run = "r2"; e_variant = "fence-nop";
      e_metrics_digest = "deadbeefdeadbeef" }
  in
  let c = Ledger.compare_runs ~baseline:entry ~current:other in
  check "config mismatch fails" true (not c.Ledger.cmp_passed);
  Alcotest.(check (list string))
    "mismatched fields named" [ "variant"; "metrics_digest" ]
    (List.map (fun (k, _, _) -> k) c.Ledger.cmp_mismatched)

let test_compare_one_sided_cost_center () =
  (* a center recorded by only one run surfaces as a delta against 0 *)
  let fewer_centers = { entry with Ledger.e_run = "r2"; e_cost = [
      List.hd entry.Ledger.e_cost ] } in
  let c = Ledger.compare_runs ~baseline:entry ~current:fewer_centers in
  check "dropped center fails" true (not c.Ledger.cmp_passed);
  check "dropped center surfaces against zero" true
    (List.exists
       (fun d ->
         d.Ledger.d_field = "cc:px86/snapshot_copy:units"
         && d.Ledger.d_current = 0.)
       c.Ledger.cmp_changed)

let test_compare_golden_render () =
  let current =
    { entry with Ledger.e_run = "r2"; e_ts = entry.Ledger.e_ts;
      e_elapsed_s = entry.Ledger.e_elapsed_s; e_cpu_s = entry.Ledger.e_cpu_s;
      e_scenarios = 82; e_races = 1 }
  in
  let c = Ledger.compare_runs ~baseline:entry ~current in
  check_str "golden compare rendering"
    "ledger compare: r1 (baseline) vs r2 (current)\n\
    \  scenarios: 81 -> 82 (+1.2%) CHANGED\n\
    \  races: 2 -> 1 (-50.0%) REGRESSED\n\
     ledger compare: FAIL"
    (Ledger.render ~a_label:"r1" ~b_label:"r2" c);
  (* a field the baseline holds at 0 (here, a cost center only the
     current run recorded) has no relative change *)
  let current =
    { entry with Ledger.e_run = "r2";
      e_cost =
        [ List.hd entry.Ledger.e_cost;
          { Ledger.c_center = "oracle/observe"; c_count = 81; c_units = 0;
            c_wall_us = 0 };
          List.nth entry.Ledger.e_cost 1 ] }
  in
  let c = Ledger.compare_runs ~baseline:entry ~current in
  check_str "golden render of a zero baseline"
    "ledger compare: r1 (baseline) vs r2 (current)\n\
    \  cc:oracle/observe:count: 0 -> 81 (new) CHANGED\n\
     ledger compare: FAIL"
    (Ledger.render ~a_label:"r1" ~b_label:"r2" c)

(* ------------------------------------------------------------------ *)
(* Progress heartbeat vs log level                                      *)

(* The heartbeat is stderr chatter: level [off] (--quiet) must silence
   it while the JSONL stream keeps flowing.  Asserted by swapping a
   temp file onto fd 2 around the emission. *)
let capture_stderr f =
  let tmp = Filename.temp_file "yashme_stderr" ".txt" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  data

let test_progress_heartbeat_respects_quiet () =
  quiesce ();
  let jsonl = Filename.temp_file "yashme_progress" ".jsonl" in
  Log.set_quiet true;
  let quiet_err =
    capture_stderr (fun () ->
        Progress.start ~heartbeat:true ~jsonl ();
        Progress.batch 1;
        Progress.tick ~races:0 ~faulted:false ();
        ignore (Progress.stop ()))
  in
  check_str "quiet silences the heartbeat" "" quiet_err;
  check "jsonl stream unaffected by log level" true
    ((Unix.stat jsonl).Unix.st_size > 0);
  Log.set_quiet false;
  let loud_err =
    capture_stderr (fun () ->
        Progress.start ~heartbeat:true ();
        Progress.batch 1;
        Progress.tick ~races:0 ~faulted:false ();
        ignore (Progress.stop ()))
  in
  check "default level prints the heartbeat" true
    (Str.string_match (Str.regexp "yashme: progress") loud_err 0);
  Sys.remove jsonl;
  quiesce ()

let () =
  Alcotest.run "observatory"
    [
      ( "attribution",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_attribution_disabled_is_noop;
          Alcotest.test_case "accumulates and merges across domains" `Quick
            test_attribution_accumulates_and_merges;
          Alcotest.test_case "diff and find-or-create registry" `Quick
            test_attribution_diff_and_registry;
          Alcotest.test_case "fields round-trip" `Quick
            test_attribution_fields_roundtrip;
          Alcotest.test_case "jobs-invariant projection" `Slow
            test_attribution_jobs_invariant;
          Alcotest.test_case "report identical with attribution on" `Quick
            test_report_identical_with_attribution_on;
          Alcotest.test_case "gc charge is the domain's own" `Quick
            test_gc_charge_is_per_domain;
          Alcotest.test_case "gc reading survives collections" `Quick
            test_gc_reading_survives_collections;
        ] );
      ( "engine",
        [
          Alcotest.test_case "jobs 1v4 projection byte-identity" `Quick
            test_engine_jobs_identity;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "fields round-trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "version gate" `Quick test_ledger_version_gate;
          Alcotest.test_case "digests" `Quick test_ledger_digests;
          Alcotest.test_case "field classes" `Quick test_ledger_field_classes;
        ] );
      ( "ledger-store",
        [
          Alcotest.test_case "append/load/find round-trip" `Quick
            test_store_roundtrip_and_find;
          Alcotest.test_case "positioned errors" `Quick
            test_store_positioned_errors;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical runs pass" `Quick
            test_compare_identical_runs;
          Alcotest.test_case "direction-aware verdicts" `Quick
            test_compare_direction_aware;
          Alcotest.test_case "mismatched config" `Quick
            test_compare_mismatched_config;
          Alcotest.test_case "one-sided cost center" `Quick
            test_compare_one_sided_cost_center;
          Alcotest.test_case "golden render" `Quick test_compare_golden_render;
        ] );
      ( "progress",
        [
          Alcotest.test_case "heartbeat respects --quiet" `Quick
            test_progress_heartbeat_respects_quiet;
        ] );
    ]
