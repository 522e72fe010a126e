(* Tests for the soak service: driver determinism (same seed, any jobs
   count), cooperative cancellation with checkpoint/resume byte
   identity, fault-storm quarantine, the manifest codec, and the
   crash-safety guards on the file formats the service reads back
   (corpus, ledger, progress stream). *)

module Soak = Pm_harness.Soak
module Scenario = Pm_harness.Scenario
module Json = Yashme_util.Json
module Corpus = Pm_corpus.Corpus
module Witness = Pm_corpus.Witness
module Soak_store = Pm_corpus.Soak_store
module Ledger_store = Pm_corpus.Ledger_store
module Progress = Observe.Progress

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let () = Observe.Log.set_quiet true

(* A small soak configuration that finishes in a couple of rounds. *)
let small_config ?(streams = [ Pm_benchmarks.Memcached.soak_stream ])
    ?(seed = 11) ?(jobs = 1) ?(fault_budget = 3) ~max_ops () =
  {
    (Soak.default_config ~streams) with
    Soak.sk_options = { Scenario.default_options with Scenario.seed };
    sk_jobs = jobs;
    sk_ops_per_exec = 8;
    sk_fault_budget = fault_budget;
    sk_max_ops = Some max_ops;
    sk_checkpoint_every = 0;
  }

(* Drive a run collecting witnesses through a store sink, like the
   CLI does. *)
let run_with_sink ?resume ?preload ?stop_after_rounds cfg =
  let sink = Soak_store.sink () in
  Option.iter (Soak_store.preload sink) preload;
  let rounds = ref 0 in
  let on_batch triples =
    Soak_store.absorb sink triples;
    incr rounds;
    match stop_after_rounds with
    | Some n when !rounds >= n -> Soak.request_stop ()
    | _ -> ()
  in
  let r = Soak.run ?resume ~on_batch cfg in
  (r, sink)

(* ------------------------------------------------------------------ *)
(* Determinism                                                          *)

let test_same_seed_same_bytes () =
  let r1, s1 = run_with_sink (small_config ~max_ops:100 ()) in
  let r2, s2 = run_with_sink (small_config ~max_ops:100 ()) in
  check "stop reason reproduces" true
    (r1.Soak.r_reason = r2.Soak.r_reason);
  check "snapshots identical" true (r1.Soak.r_snapshot = r2.Soak.r_snapshot);
  check_str "witness corpus byte-identical"
    (Corpus.to_jsonl (Soak_store.witnesses s1))
    (Corpus.to_jsonl (Soak_store.witnesses s2));
  check "budget stop is ok" true r1.Soak.r_ok;
  check "some client ops streamed" true
    (r1.Soak.r_snapshot.Soak.snap_client_ops >= 100)

let test_jobs_invariant () =
  let r1, s1 = run_with_sink (small_config ~jobs:1 ~max_ops:100 ()) in
  let r2, s2 = run_with_sink (small_config ~jobs:2 ~max_ops:100 ()) in
  check "snapshots identical across jobs" true
    (r1.Soak.r_snapshot = r2.Soak.r_snapshot);
  check_str "witness corpus byte-identical across jobs"
    (Corpus.to_jsonl (Soak_store.witnesses s1))
    (Corpus.to_jsonl (Soak_store.witnesses s2))

let test_seed_matters () =
  let _, s1 = run_with_sink (small_config ~seed:11 ~max_ops:100 ()) in
  let _, s2 = run_with_sink (small_config ~seed:12 ~max_ops:100 ()) in
  (* Different seeds draw different ops and crash plans; the witness
     sets coinciding byte-for-byte would mean the seed is ignored. *)
  check "different seed, different corpus" true
    (Corpus.to_jsonl (Soak_store.witnesses s1)
    <> Corpus.to_jsonl (Soak_store.witnesses s2))

(* ------------------------------------------------------------------ *)
(* Cancellation and resume                                              *)

let test_interrupt_then_resume_reaches_same_bytes () =
  let cfg = small_config ~max_ops:200 () in
  (* The uninterrupted reference run. *)
  let full, full_sink = run_with_sink cfg in
  check "reference run stops on budget" true
    (full.Soak.r_reason = Soak.Op_budget);
  (* The same run, cooperatively stopped mid-soak (the SIGINT path:
     the handler calls request_stop, the loop stops at the round
     boundary). *)
  let cut, cut_sink = run_with_sink ~stop_after_rounds:2 cfg in
  check "cooperative stop reports Interrupted" true
    (cut.Soak.r_reason = Soak.Interrupted);
  check "interrupted run is not ok" true (not cut.Soak.r_ok);
  check "interrupted earlier than the reference" true
    (cut.Soak.r_snapshot.Soak.snap_next_round
    < full.Soak.r_snapshot.Soak.snap_next_round);
  (* Checkpoint round-trip through the manifest codec, as the service
     does, then resume from it with the checkpoint corpus preloaded. *)
  let manifest =
    {
      Soak_store.m_run = "soak-test";
      m_streams = [ "memcached" ];
      m_seed = 11;
      m_variant = Px86.Variant.default_label;
      m_jobs = 1;
      m_ops_per_exec = 8;
      m_fault_budget = 3;
      m_max_ops = Some 200;
      m_wall_s = None;
      m_checkpoint_every = 0;
      m_corpus = "soak-test.corpus.jsonl";
      m_snapshot = cut.Soak.r_snapshot;
      m_witnesses = List.length (Soak_store.witnesses cut_sink);
      m_raw = Soak_store.raw cut_sink;
      m_duplicates = Soak_store.duplicates cut_sink;
      m_coverage_digest = "";
      m_soak_ok = false;
      m_stopped = Soak.stop_reason_label cut.Soak.r_reason;
      m_ts = 0.;
      m_elapsed_s = 0.;
    }
  in
  let decoded =
    match Soak_store.decode (Soak_store.encode manifest) with
    | Ok m -> m
    | Error e -> Alcotest.fail ("manifest round-trip: " ^ e)
  in
  check "manifest snapshot survives the codec" true
    (decoded.Soak_store.m_snapshot = cut.Soak.r_snapshot);
  let resumed, resumed_sink =
    run_with_sink ~resume:decoded.Soak_store.m_snapshot
      ~preload:(Soak_store.witnesses cut_sink) cfg
  in
  check "resumed run stops on budget" true
    (resumed.Soak.r_reason = Soak.Op_budget);
  check "resumed snapshot equals the uninterrupted one" true
    (resumed.Soak.r_snapshot = full.Soak.r_snapshot);
  check_str "resumed corpus byte-identical to the uninterrupted one"
    (Corpus.to_jsonl (Soak_store.witnesses full_sink))
    (Corpus.to_jsonl (Soak_store.witnesses resumed_sink))

(* ------------------------------------------------------------------ *)
(* Quarantine                                                           *)

let storm = Pm_benchmarks.Demo_faults.storm_stream

let test_storm_quarantine_keeps_run_alive () =
  let cfg =
    small_config ~streams:[ storm ] ~fault_budget:2 ~max_ops:250 ()
  in
  let r, _ = run_with_sink cfg in
  (* The crashing delete handler storms the delete-bearing mixes; the
     delete-free ones (read-heavy, rmw-heavy) must keep the service
     alive to its op budget. *)
  check "run survives the fault storm to its budget" true
    (r.Soak.r_reason = Soak.Op_budget);
  check "budget stop is ok" true r.Soak.r_ok;
  let quarantined, healthy =
    List.partition
      (fun b -> b.Soak.bs_quarantined)
      r.Soak.r_snapshot.Soak.snap_buckets
  in
  check "some combos quarantined" true (quarantined <> []);
  check "some combos still healthy" true (healthy <> []);
  List.iter
    (fun b ->
      check "quarantined combos exhausted their fault budget" true
        (b.Soak.bs_faults >= 2))
    quarantined

let test_all_quarantined_is_exhausted () =
  let churn = List.find (fun m -> m.Soak.mix_label = "churn") Soak.default_mixes in
  let cfg =
    {
      (small_config ~streams:[ storm ] ~fault_budget:1 ~max_ops:10_000 ()) with
      Soak.sk_buckets = [ { Soak.b_mix = churn; b_dist = Soak.Uniform } ];
    }
  in
  let r, _ = run_with_sink cfg in
  check "every combo quarantined stops the run" true
    (r.Soak.r_reason = Soak.Exhausted);
  check "exhausted run is not ok" true (not r.Soak.r_ok)

(* ------------------------------------------------------------------ *)
(* Manifest codec                                                       *)

let manifest_fixture =
  {
    Soak_store.m_run = "nightly";
    m_streams = [ "memcached"; "redis"; "cceh" ];
    m_seed = 42;
    m_variant = "strict-tso";
    m_jobs = 4;
    m_ops_per_exec = 24;
    m_fault_budget = 3;
    m_max_ops = None;
    m_wall_s = Some 3600.;
    m_checkpoint_every = 10;
    m_corpus = "nightly.corpus.jsonl";
    m_snapshot =
      {
        Soak.snap_next_round = 17;
        snap_scenarios = 408;
        snap_completed = 400;
        snap_faulted = 8;
        snap_diverged = 0;
        snap_crashed = 311;
        snap_executions = 816;
        snap_ops = 61_203;
        snap_client_ops = 9_792;
        snap_races = 231;
        snap_buckets =
          [
            {
              Soak.bs_combo = "soak:memcached:churn:uniform";
              bs_faults = 1;
              bs_quarantined = false;
            };
            {
              Soak.bs_combo = "soak:redis:rmw-heavy:hotspot";
              bs_faults = 3;
              bs_quarantined = true;
            };
          ];
      };
    m_witnesses = 57;
    m_raw = 231;
    m_duplicates = 174;
    m_coverage_digest = "abc123";
    m_soak_ok = true;
    m_stopped = "wall-budget";
    m_ts = 1754650000.5;
    m_elapsed_s = 3600.25;
  }

let test_manifest_roundtrip () =
  match Soak_store.decode (Soak_store.encode manifest_fixture) with
  | Error e -> Alcotest.fail e
  | Ok m -> check "decode inverts encode" true (m = manifest_fixture)

let test_manifest_identity_excludes_timing () =
  let later = { manifest_fixture with Soak_store.m_ts = 9.; m_elapsed_s = 1. } in
  check_str "identity projection ignores timing stamps"
    (Json.encode_obj (Soak_store.identity_fields manifest_fixture))
    (Json.encode_obj (Soak_store.identity_fields later));
  check "full encodings do differ" true
    (Soak_store.encode manifest_fixture <> Soak_store.encode later)

let test_manifest_rejects_newer_version () =
  let line = Soak_store.encode manifest_fixture in
  let bumped =
    Str.replace_first
      (Str.regexp_string
         (Printf.sprintf "\"manifest_version\":%d" Soak_store.version))
      (Printf.sprintf "\"manifest_version\":%d" (Soak_store.version + 1))
      line
  in
  match Soak_store.decode bumped with
  | Ok _ -> Alcotest.fail "a newer manifest version must not decode"
  | Error e ->
      check "error names the version gate" true
        (Str.string_match (Str.regexp ".*newer.*") e 0)

(* The version gate has a floor as well as a ceiling: a manifest can
   never claim a version before the first one. *)
let test_manifest_rejects_version_zero () =
  let line =
    Str.replace_first
      (Str.regexp_string
         (Printf.sprintf "\"manifest_version\":%d" Soak_store.version))
      "\"manifest_version\":0"
      (Soak_store.encode manifest_fixture)
  in
  let tmp = Filename.temp_file "yashme_soak_manifest" ".jsonl" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc (line ^ "\n"));
  let r = Soak_store.load tmp in
  Sys.remove tmp;
  match r with
  | Ok _ -> Alcotest.fail "manifest_version 0 must not decode"
  | Error e ->
      check "positioned version error" true
        (Str.string_match
           (Str.regexp (Str.quote tmp ^ ":1: manifest_version 0 is older")) e 0)

let test_manifest_file_guards () =
  (* Missing file: a positioned error, not an exception. *)
  (match Soak_store.load "/nonexistent/soak.manifest.jsonl" with
  | Ok _ -> Alcotest.fail "missing manifest must not load"
  | Error _ -> ());
  (* Empty file: the signature of an interrupted non-atomic writer. *)
  let tmp = Filename.temp_file "yashme_soak_manifest" ".jsonl" in
  (match Soak_store.load tmp with
  | Ok _ -> Alcotest.fail "empty manifest must not load"
  | Error e ->
      check "empty-manifest error carries the path" true
        (Str.string_match (Str.regexp_string tmp) e 0));
  (* Atomic save then load round-trips. *)
  Soak_store.save tmp manifest_fixture;
  (match Soak_store.load tmp with
  | Ok m -> check "saved manifest loads back" true (m = manifest_fixture)
  | Error e -> Alcotest.fail e);
  Sys.remove tmp

(* ------------------------------------------------------------------ *)
(* Crash-safety guards on loaded formats                                *)

let test_corpus_empty_and_missing_guards () =
  (match Corpus.load "/nonexistent/corpus.jsonl" with
  | Ok _ -> Alcotest.fail "missing corpus must not load"
  | Error _ -> ());
  let tmp = Filename.temp_file "yashme_soak_corpus" ".jsonl" in
  (match Corpus.load tmp with
  | Ok _ -> Alcotest.fail "empty corpus must not load"
  | Error e ->
      check "empty-corpus error is positioned" true
        (Str.string_match (Str.regexp (Str.quote tmp ^ ":1:.*empty")) e 0));
  Sys.remove tmp

let test_corpus_truncated_line_guard () =
  (* A witness line chopped mid-object — what a torn non-atomic write
     would leave — must be a positioned error, not an exception. *)
  let _, sink = run_with_sink (small_config ~max_ops:50 ()) in
  let jsonl = Corpus.to_jsonl (Soak_store.witnesses sink) in
  check "fixture produced witnesses" true (String.length jsonl > 40);
  let tmp = Filename.temp_file "yashme_soak_corpus" ".jsonl" in
  let oc = open_out_bin tmp in
  output_string oc (String.sub jsonl 0 (String.length jsonl - 20));
  close_out oc;
  (match Corpus.load tmp with
  | Ok _ -> Alcotest.fail "truncated corpus must not load"
  | Error e ->
      check "truncation error carries file and line" true
        (Str.string_match (Str.regexp (Str.quote tmp ^ ":[0-9]+:")) e 0));
  Sys.remove tmp

let test_ledger_truncated_line_guard () =
  let tmp = Filename.temp_file "yashme_soak_ledger" ".jsonl" in
  Sys.remove tmp;
  (* Empty ledger file. *)
  let oc = open_out_bin tmp in
  close_out oc;
  (match Ledger_store.load tmp with
  | Ok _ -> Alcotest.fail "empty ledger must not load"
  | Error e ->
      check "empty-ledger error mentions emptiness" true
        (Str.string_match (Str.regexp ".*empty") e 0));
  (* One valid line followed by a mid-line truncation. *)
  let entry =
    {
      Observe.Ledger.e_version = Observe.Ledger.version;
      e_run = "soak";
      e_ts = 0.;
      e_program = "soak:memcached";
      e_variant = "strict-tso";
      e_mode = "soak";
      e_jobs = 1;
      e_seed = 11;
      e_scenarios = 16;
      e_completed = 16;
      e_faulted = 0;
      e_diverged = 0;
      e_executions = 32;
      e_ops = 1000;
      e_races = 3;
      e_benign = 0;
      e_raw_races = 9;
      e_recovery_failures = 0;
      e_witnesses = 3;
      e_elapsed_s = 1.;
      e_cpu_s = 1.;
      e_metrics_digest = "";
      e_coverage_digest = "";
      e_cost = [];
    }
  in
  Ledger_store.append tmp entry;
  let line = Json.encode_obj (Observe.Ledger.fields entry) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 tmp in
  output_string oc (String.sub line 0 (String.length line / 2));
  close_out oc;
  (match Ledger_store.load tmp with
  | Ok _ -> Alcotest.fail "truncated ledger must not load"
  | Error e ->
      check "truncation reported at line 2" true
        (Str.string_match (Str.regexp (Str.quote tmp ^ ":2:")) e 0));
  Sys.remove tmp

(* ------------------------------------------------------------------ *)
(* Progress ETA clamping                                                *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let assert_finite_stream tmp =
  let lines = read_lines tmp in
  check "stream is non-empty" true (lines <> []);
  List.iter
    (fun line ->
      check "no inf/nan leaks into the stream" false
        (Str.string_match (Str.regexp ".*\\(inf\\|nan\\).*") line 0);
      match Json.decode_obj line with
      | Error e -> Alcotest.fail ("progress line not decodable: " ^ e)
      | Ok fields ->
          List.iter
            (fun key ->
              match List.assoc_opt key fields with
              | Some (`F f) ->
                  check
                    (Printf.sprintf "%s is finite and non-negative" key)
                    true
                    (Float.is_finite f && f >= 0.)
              | _ -> Alcotest.fail ("missing float field " ^ key))
            [ "rate_per_s"; "eta_s"; "elapsed_s" ])
    lines

let test_progress_eta_clamped_before_any_work () =
  (* First tick before any batch was announced: no total, no elapsed
     work to extrapolate from — rate and ETA must clamp to 0, never
     inf/nan, on stderr or in the JSONL stream. *)
  let tmp = Filename.temp_file "yashme_soak_progress" ".jsonl" in
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Progress.tick ~races:0 ~faulted:false ();
  ignore (Progress.stop ());
  assert_finite_stream tmp;
  Sys.remove tmp

let test_progress_eta_clamped_at_zero_rate () =
  (* Work announced but none finished: remaining > 0 at rate 0 is the
     division-by-zero shape of the old ETA; it must render as 0. *)
  let tmp = Filename.temp_file "yashme_soak_progress" ".jsonl" in
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Progress.batch 5;
  ignore (Progress.stop ());
  assert_finite_stream tmp;
  let last = List.nth_opt (List.rev (read_lines tmp)) 0 in
  (match last with
  | None -> Alcotest.fail "no final emission"
  | Some line -> (
      match Json.decode_obj line with
      | Error e -> Alcotest.fail e
      | Ok fields ->
          check "eta clamps to 0 at zero rate" true
            (List.assoc "eta_s" fields = `F 0.);
          check "rate clamps to 0 with nothing finished" true
            (List.assoc "rate_per_s" fields = `F 0.)));
  Sys.remove tmp

let test_progress_stream_atomic_commit () =
  (* The stream is written through a temporary and renamed at stop, so
     a reader polling the path never sees a half-written file; after
     stop it must exist and lint as JSONL. *)
  let tmp = Filename.temp_file "yashme_soak_progress" ".jsonl" in
  Sys.remove tmp;
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Progress.batch 2;
  Progress.tick ~races:0 ~faulted:false ();
  check "no file visible before commit" false (Sys.file_exists tmp);
  Progress.tick ~races:1 ~faulted:false ();
  ignore (Progress.stop ());
  check "file visible after stop" true (Sys.file_exists tmp);
  (match Observe.Trace.check_file tmp with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("progress stream not well-formed: " ^ e));
  assert_finite_stream tmp;
  Sys.remove tmp

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "soak"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same bytes" `Slow
            test_same_seed_same_bytes;
          Alcotest.test_case "jobs-invariant" `Slow test_jobs_invariant;
          Alcotest.test_case "seed matters" `Slow test_seed_matters;
        ] );
      ( "resume",
        [
          Alcotest.test_case "interrupt, checkpoint, resume, same bytes" `Slow
            test_interrupt_then_resume_reaches_same_bytes;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "fault storm survives to budget" `Slow
            test_storm_quarantine_keeps_run_alive;
          Alcotest.test_case "all quarantined = exhausted" `Quick
            test_all_quarantined_is_exhausted;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "identity excludes timing" `Quick
            test_manifest_identity_excludes_timing;
          Alcotest.test_case "rejects newer version" `Quick
            test_manifest_rejects_newer_version;
          Alcotest.test_case "rejects version 0" `Quick
            test_manifest_rejects_version_zero;
          Alcotest.test_case "file guards (missing/empty/save-load)" `Quick
            test_manifest_file_guards;
        ] );
      ( "guards",
        [
          Alcotest.test_case "corpus: empty and missing" `Quick
            test_corpus_empty_and_missing_guards;
          Alcotest.test_case "corpus: mid-line truncation" `Slow
            test_corpus_truncated_line_guard;
          Alcotest.test_case "ledger: empty and truncation" `Quick
            test_ledger_truncated_line_guard;
        ] );
      ( "progress",
        [
          Alcotest.test_case "eta finite before any work" `Quick
            test_progress_eta_clamped_before_any_work;
          Alcotest.test_case "eta clamps at zero rate" `Quick
            test_progress_eta_clamped_at_zero_rate;
          Alcotest.test_case "jsonl stream commits atomically" `Quick
            test_progress_stream_atomic_commit;
        ] );
    ]
