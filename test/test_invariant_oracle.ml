(* Tests for the crash-consistency invariant oracle: inference
   determinism, the demo-inconsistency fixture (oracle-only finding),
   jobs-invariant report and [oracle] block bytes, witness v3
   round-trip with v2/v1 decode compat, and the JSON codec's UTF-16
   surrogate-pair handling. *)

module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Scenario = Pm_harness.Scenario
module Invariant = Pm_oracle.Invariant
module Json = Yashme_util.Json
module Witness = Pm_corpus.Witness
module Replay = Pm_corpus.Replay
module Minimize = Pm_corpus.Minimize

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_strs = Alcotest.(check (list string))

let demo = Pm_benchmarks.Demo_faults.inconsistency

let lookup name =
  if name = demo.Program.name then Some demo
  else
    match Pm_benchmarks.Registry.find name with
    | exception Not_found -> None
    | p -> Some p

(* ------------------------------------------------------------------ *)
(* Invariant inference                                                  *)

(* Two independent preparations over the same program infer the same
   sorted invariant set — inference is a pure function of the
   reference trace, which is itself deterministic. *)
let test_inference_deterministic () =
  let labels () =
    match Runner.prepare_oracle demo with
    | None -> Alcotest.fail "demo-inconsistency must have an observe hook"
    | Some prep -> Runner.oracle_invariant_labels prep
  in
  let a = labels () and b = labels () in
  check "inference produced invariants" true (a <> []);
  check_strs "invariant sets identical across preparations" a b

let test_invariant_lines_roundtrip () =
  match Runner.prepare_oracle demo with
  | None -> Alcotest.fail "demo-inconsistency must have an observe hook"
  | Some prep -> (
      let invs = prep.Runner.op_invariants in
      let text = Invariant.to_lines invs in
      match Invariant.of_lines text with
      | Error msg -> Alcotest.fail msg
      | Ok invs' ->
          check_strs "to_lines/of_lines round-trip"
            (List.map Invariant.label invs)
            (List.map Invariant.label invs');
          check_str "re-rendering is byte-identical" text
            (Invariant.to_lines invs'))

(* ------------------------------------------------------------------ *)
(* The demo-inconsistency fixture                                       *)

(* The fixture's bug (flag flushed before the data it guards) is
   invisible to the race detector — every store is flushed and fenced
   before the crash-free end — but the oracle's ordering invariant
   catches the window where only the flag persisted. *)
let test_demo_oracle_only () =
  let o = Runner.model_check_outcome ~oracle:true demo in
  let r = o.Runner.o_report in
  check_strs "race detector stays silent" [] (Report.keys r);
  check_strs "oracle flags the ordering bug"
    [ "order:demo.data<demo.flag" ]
    (Report.consistency_keys r)

(* With the oracle off the same run reports nothing at all, and its
   rendering carries no trace of the oracle subsystem. *)
let test_demo_oracle_off_silent () =
  let r = (Runner.model_check_outcome demo).Runner.o_report in
  check_strs "no races" [] (Report.keys r);
  check_strs "no consistency violations" [] (Report.consistency_keys r);
  let text = Report.to_string r in
  check "report text mentions no violations" true
    (try
       ignore
         (Str.search_forward (Str.regexp_string "consistency-violation") text 0);
       false
     with Not_found -> true)

(* A program without an observe hook runs byte-identically with the
   oracle requested: prepare_oracle yields no context to attach. *)
let test_no_observe_hook_is_identity () =
  let p = Option.get (lookup "litmus-publish-flag") in
  check "litmus program has no observe hook" true
    (Runner.prepare_oracle p = None);
  let run oracle = Report.to_string (Runner.model_check_outcome ~oracle p).Runner.o_report in
  check_str "oracle-on bytes unchanged" (run false) (run true)

(* ------------------------------------------------------------------ *)
(* Determinism across job counts                                        *)

let test_jobs_invariant () =
  let run jobs = (Runner.model_check_outcome ~oracle:true ~jobs demo).Runner.o_report in
  let r1 = run 1 and r4 = run 4 in
  check_str "report bytes identical jobs 1 vs 4" (Report.to_string r1)
    (Report.to_string r4);
  check_str "[oracle] block bytes identical jobs 1 vs 4"
    (Report.oracle_to_string r1)
    (Report.oracle_to_string r4)

(* ------------------------------------------------------------------ *)
(* Witness v3                                                           *)

let consistency_witnesses () =
  let o = Runner.model_check_outcome ~oracle:true demo in
  (Witness.of_outcome ~program:demo.Program.name o).Witness.witnesses
  |> List.filter (fun (w : Witness.t) ->
         w.Witness.kind = Witness.Consistency_violation)

let test_witness_v3_roundtrip () =
  match consistency_witnesses () with
  | [] -> Alcotest.fail "expected a consistency-violation witness"
  | w :: _ -> (
      let line = Witness.encode w in
      check "line carries v3" true
        (try
           ignore (Str.search_forward (Str.regexp_string "{\"v\":3,") line 0);
           true
         with Not_found -> false);
      match Witness.decode line with
      | Error msg -> Alcotest.fail msg
      | Ok w' ->
          check_str "decode/encode round-trip bytes" line (Witness.encode w');
          check_str "kind preserved" "consistency_violation"
            (Witness.kind_label w'.Witness.kind);
          let r = Replay.replay_all ~lookup [ w' ] in
          check_int "v3 witness reproduces" r.Replay.total r.Replay.reproduced)

let test_witness_v3_minimizes () =
  match consistency_witnesses () with
  | [] -> Alcotest.fail "expected a consistency-violation witness"
  | w :: _ ->
      let m = Minimize.minimize ~lookup w in
      check "minimization reproduced the violation" true
        m.Minimize.reproduced

(* Older corpus lines still decode: a v2 line (same shape, older
   version stamp) and a v1 line (additionally missing the variant
   field) both load and replay. *)
let race_witness () =
  let p = Option.get (lookup "litmus-publish-flag") in
  let o = Runner.model_check_outcome p in
  List.hd (Witness.of_outcome ~program:p.Program.name o).Witness.witnesses

let test_witness_v2_compat () =
  let line = Witness.encode (race_witness ()) in
  let v2 =
    Str.global_replace (Str.regexp_string "{\"v\":3,") "{\"v\":2," line
  in
  match Witness.decode v2 with
  | Error msg -> Alcotest.fail msg
  | Ok w' ->
      let r = Replay.replay_all ~lookup [ w' ] in
      check_int "v2 witness reproduces" r.Replay.total r.Replay.reproduced

let test_witness_v1_compat () =
  let line = Witness.encode (race_witness ()) in
  let v1 =
    line
    |> Str.global_replace (Str.regexp_string "{\"v\":3,") "{\"v\":1,"
    |> Str.global_replace (Str.regexp_string "\"variant\":\"strict-tso\",") ""
  in
  match Witness.decode v1 with
  | Error msg -> Alcotest.fail msg
  | Ok w' ->
      check "missing variant defaults to strict-tso" true
        (Px86.Variant.is_default w'.Witness.options.Scenario.variant);
      let r = Replay.replay_all ~lookup [ w' ] in
      check_int "v1 witness reproduces" r.Replay.total r.Replay.reproduced

(* ------------------------------------------------------------------ *)
(* JSON surrogate pairs                                                 *)

let decode_single line =
  match Json.decode_obj line with
  | Error msg -> Alcotest.fail msg
  | Ok [ (_, `S s) ] -> s
  | Ok _ -> Alcotest.fail "expected a single string field"

let test_surrogate_pair_decodes () =
  (* U+1F600 as its UTF-16 escape pair decodes to 4-byte UTF-8. *)
  let s = decode_single "{\"k\":\"\\ud83d\\ude00\"}" in
  check_str "astral codepoint decodes" "\xf0\x9f\x98\x80" s;
  (* The encoder emits raw UTF-8, which decodes back unchanged. *)
  let line = Json.encode_obj [ ("k", `S s) ] in
  check_str "round-trip through raw UTF-8" s (decode_single line)

let test_surrogate_errors () =
  let rejected line =
    match Json.decode_obj line with Error _ -> true | Ok _ -> false
  in
  check "lone high surrogate rejected" true
    (rejected "{\"k\":\"\\ud83d\"}");
  check "lone low surrogate rejected" true
    (rejected "{\"k\":\"\\ude00\"}");
  check "high surrogate before non-surrogate rejected" true
    (rejected "{\"k\":\"\\ud83d\\u0041\"}");
  (* A BMP escape next to the pair still works. *)
  check_str "bmp escape unaffected" "A\xf0\x9f\x98\x80"
    (decode_single "{\"k\":\"\\u0041\\ud83d\\ude00\"}")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "invariant-oracle"
    [
      ( "inference",
        [
          Alcotest.test_case "deterministic" `Quick
            test_inference_deterministic;
          Alcotest.test_case "lines round-trip" `Quick
            test_invariant_lines_roundtrip;
        ] );
      ( "demo-inconsistency",
        [
          Alcotest.test_case "oracle-only finding" `Quick
            test_demo_oracle_only;
          Alcotest.test_case "silent with oracle off" `Quick
            test_demo_oracle_off_silent;
          Alcotest.test_case "no observe hook = identity" `Quick
            test_no_observe_hook_is_identity;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs 1 vs 4 bytes" `Quick test_jobs_invariant ] );
      ( "witness-v3",
        [
          Alcotest.test_case "round-trip + replay" `Quick
            test_witness_v3_roundtrip;
          Alcotest.test_case "minimizes" `Quick test_witness_v3_minimizes;
          Alcotest.test_case "v2 decode compat" `Quick test_witness_v2_compat;
          Alcotest.test_case "v1 decode compat" `Quick test_witness_v1_compat;
        ] );
      ( "json-surrogates",
        [
          Alcotest.test_case "pair decodes + round-trip" `Quick
            test_surrogate_pair_decodes;
          Alcotest.test_case "lone/mismatched rejected" `Quick
            test_surrogate_errors;
        ] );
    ]
