(* Tests for the witness-corpus subsystem: JSON codec, witness
   encode/decode round-trips, extraction (corpus keys == report keys,
   jobs-invariant bytes), replay, ddmin minimization and corpus
   merge — plus the pinned golden rendering of a litmus race
   witness. *)

open Pm_runtime
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Scenario = Pm_harness.Scenario
module Json = Yashme_util.Json
module Witness = Pm_corpus.Witness
module Corpus = Pm_corpus.Corpus
module Replay = Pm_corpus.Replay
module Minimize = Pm_corpus.Minimize

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Same shape as the engine suite's toy: one racy plain store under a
   flush, one release store that never races. *)
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

(* Replay lookup: the local toy plus every registry program (demos
   included), like the CLI's. *)
let lookup name =
  if name = "toy" then Some toy
  else
    match Pm_benchmarks.Registry.find name with
    | exception Not_found -> None
    | p -> Some p

let sorted_keys kind (ws : Witness.t list) =
  ws
  |> List.filter (fun (w : Witness.t) -> w.Witness.kind = kind)
  |> List.map (fun (w : Witness.t) -> w.Witness.key)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* JSON codec                                                           *)

let test_json_roundtrip () =
  let fields =
    [ ("s", `S "a \"quoted\"\nline\twith \x01 control and é utf8");
      ("i", `I (-42)); ("b", `B true); ("f", `F 0.1); ("n", `Null);
      ("big", `F 1.7976931348623157e308) ]
  in
  let line = Json.encode_obj fields in
  (match Json.decode_obj line with
  | Error msg -> Alcotest.fail msg
  | Ok fields' ->
      check "all fields round-trip" true (fields = fields'));
  (* Encoding is deterministic. *)
  check_str "stable bytes" line (Json.encode_obj fields)

let test_json_rejects_malformed () =
  let bad s =
    match Json.decode_obj s with Ok _ -> false | Error _ -> true
  in
  check "nested object" true (bad {|{"a":{"b":1}}|});
  check "array value" true (bad {|{"a":[1]}|});
  check "trailing garbage" true (bad {|{"a":1} x|});
  check "unterminated string" true (bad {|{"a":"oops|});
  check "bare word" true (bad {|{"a":yes}|});
  check "lone surrogate" true (bad {|{"a":"\ud800"}|});
  (* Not JSON, and once silently rewritten into another value. *)
  List.iter
    (fun (name, s) -> check name true (bad s))
    [
      ("hex int", {|{"a":0x10}|});
      ("underscored int", {|{"a":1_000}|});
      ("binary int", {|{"a":0b101}|});
      ("negative octal", {|{"a":-0o17}|});
      ("hex float", {|{"a":0x1.8p1}|});
      ("no integer part", {|{"a":.5}|});
      ("empty fraction", {|{"a":1.}|});
      ("leading plus", {|{"a":+3}|});
      ("leading zero", {|{"a":01}|});
      ("underscored \\u escape", {|{"a":"\u0_41"}|});
      ("raw tab in string", "{\"a\":\"x\ty\"}");
      ("raw control character in string", "{\"a\":\"x\001y\"}");
      ("int out of range", {|{"a":99999999999999999999}|});
      ("float out of range", {|{"a":1e400}|});
      ("not an object", {|[1]|});
    ]

(* Random flat records: strings mixing quotes, backslashes, control
   characters and multi-byte UTF-8; ints at the extremes; finite
   floats; bools; null. *)
let gen_string =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 8)
         (oneof
            [
              map (String.make 1) printable;
              map (fun i -> String.make 1 (Char.chr i)) (int_bound 0x1f);
              oneofl
                [ "\""; "\\"; "/"; "\x7f"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ];
            ])))

let gen_value : Json.value QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> `S s) gen_string;
        map (fun i -> `I i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        (* Zero is left out: -0. prints as "-0", which reads back as the
           integer 0 (a number is an int exactly when it has no fraction
           and no exponent). *)
        map (fun f -> `F (if Float.is_finite f && f <> 0. then f else 0.5)) float;
        map (fun b -> `B b) bool;
        return `Null;
      ])

let gen_record = QCheck.Gen.(list_size (int_bound 6) (pair gen_string gen_value))

let prop_json_reencode =
  QCheck.Test.make ~name:"encode (decode (encode r)) = encode r" ~count:500
    (QCheck.make ~print:Json.encode_obj gen_record)
    (fun fields ->
      let line = Json.encode_obj fields in
      match Json.decode_obj line with
      | Ok fields' -> Json.encode_obj fields' = line
      | Error msg -> QCheck.Test.fail_report msg)

(* An encoded record after one random truncation, byte replacement,
   insertion or deletion. *)
let gen_mutated =
  QCheck.Gen.(
    gen_record >>= fun fields ->
    let line = Json.encode_obj fields in
    let n = String.length line in
    oneof
      [
        map (fun k -> String.sub line 0 k) (int_bound n);
        map2
          (fun i c -> String.mapi (fun j x -> if j = i then c else x) line)
          (int_bound (n - 1)) char;
        map2
          (fun i c -> String.sub line 0 i ^ String.make 1 c ^ String.sub line i (n - i))
          (int_bound n) char;
        map
          (fun i -> String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1))
          (int_bound (n - 1));
      ])

let prop_json_never_raises =
  QCheck.Test.make ~name:"decode_obj and parse never raise on mutated input"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    (fun s ->
      ignore (Json.decode_obj s);
      ignore (Json.parse s);
      true)

(* ------------------------------------------------------------------ *)
(* Witness encode/decode                                                *)

let mc_witnesses ?(jobs = 1) p =
  (Witness.of_outcome ~program:p.Program.name
     (Runner.model_check_outcome ~jobs p))
    .Witness.witnesses

let test_witness_roundtrip () =
  let ws = mc_witnesses toy in
  check "toy yields witnesses" true (ws <> []);
  List.iter
    (fun w ->
      match Witness.decode (Witness.encode w) with
      | Error msg -> Alcotest.fail msg
      | Ok w' -> check_str "codec round-trip" (Witness.encode w) (Witness.encode w'))
    ws;
  (* Randomized options (RNG-bearing cut, float budget) round-trip
     through their labels and the seed. *)
  let racy =
    { (List.hd ws) with
      Witness.options =
        { (List.hd ws).Witness.options with
          Scenario.sched = Executor.Random_sched;
          sb_policy = Px86.Machine.Random_drain 0.4;
          cut = Px86.Machine.Cut_random (Yashme_util.Rng.create 7);
          seed = 7;
          max_wall_s = Some 1.5 } }
  in
  match Witness.decode (Witness.encode racy) with
  | Error msg -> Alcotest.fail msg
  | Ok w' ->
      check_str "randomized options round-trip" (Witness.encode racy)
        (Witness.encode w');
      check "decoded options are randomized" true
        (Scenario.options_randomized w'.Witness.options)

let test_witness_rejects_bad_version () =
  let w = List.hd (mc_witnesses toy) in
  let line = Witness.encode w in
  let bumped =
    Str.global_replace (Str.regexp_string "{\"v\":3,") "{\"v\":99," line
  in
  check "fixture rewrote the version" true (bumped <> line);
  match Witness.decode bumped with
  | Ok _ -> Alcotest.fail "version 99 must be rejected"
  | Error msg ->
      check "error names the version" true
        (try ignore (Str.search_forward (Str.regexp_string "99") msg 0); true
         with Not_found -> false)

(* Corpora recorded before the variant field existed (format v1, no
   "variant" key) must keep loading: the variant defaults to
   strict-tso, which is exactly the model those witnesses were found
   under, so they replay unchanged. *)
let test_witness_v1_compat () =
  let w = List.hd (mc_witnesses toy) in
  let line = Witness.encode w in
  let v1 =
    line
    |> Str.global_replace (Str.regexp_string "{\"v\":3,") "{\"v\":1,"
    |> Str.global_replace (Str.regexp_string "\"variant\":\"strict-tso\",") ""
  in
  check "fixture dropped the variant field" true
    (try ignore (Str.search_forward (Str.regexp_string "variant") v1 0); false
     with Not_found -> true);
  match Witness.decode v1 with
  | Error msg -> Alcotest.fail msg
  | Ok w' ->
      check "missing variant defaults to strict-tso" true
        (Px86.Variant.is_default w'.Witness.options.Scenario.variant);
      let r = Replay.replay_all ~lookup [ w' ] in
      check_int "v1 witness reproduces" r.Replay.total r.Replay.reproduced

(* A witness recorded under a non-default variant carries its label and
   replays under that same model. *)
let test_witness_variant_roundtrip () =
  let options =
    { Runner.default_options with variant = Px86.Variant.fence_nop }
  in
  let p = Option.get (lookup "litmus-publish-flag") in
  let ws =
    (Witness.of_outcome ~program:p.Program.name
       (Runner.model_check_outcome ~options p))
      .Witness.witnesses
  in
  check "fence-nop yields witnesses" true (ws <> []);
  check "the data race is recorded" true
    (List.exists (fun (w : Witness.t) -> w.Witness.key = "lit.data") ws);
  List.iter
    (fun (w : Witness.t) ->
      check "line carries the variant label" true
        (try
           ignore
             (Str.search_forward
                (Str.regexp_string "\"variant\":\"fence-nop\"")
                (Witness.encode w) 0);
           true
         with Not_found -> false))
    ws;
  let r = Replay.replay_all ~lookup ws in
  check_int "variant witnesses reproduce" r.Replay.total r.Replay.reproduced

(* ------------------------------------------------------------------ *)
(* Extraction: corpus keys == report keys, bytes jobs-invariant         *)

let test_corpus_keys_match_report () =
  (* Model checking, two-crash recovery checking and random mode; a
     clean program, a racy one and a faulty-recovery demo. *)
  let demo = Option.get (lookup "demo-faulty-recovery") in
  let cases =
    [ ("toy mc", Runner.model_check_outcome toy);
      ("cceh mc", Runner.model_check_outcome Pm_benchmarks.Cceh.program);
      ("demo mc-recovery", Runner.model_check_recovery_outcome demo);
      ("toy mc-recovery", Runner.model_check_recovery_outcome toy);
      ("memcached random",
       Runner.random_mode_outcome ~execs:10 Pm_benchmarks.Memcached.program) ]
  in
  List.iter
    (fun (name, (o : Runner.outcome)) ->
      let e = Witness.of_outcome ~program:"x" o in
      Alcotest.(check (list string))
        (name ^ ": race keys")
        (List.sort_uniq compare (Report.keys o.Runner.o_report))
        (sorted_keys Witness.Race e.Witness.witnesses);
      Alcotest.(check (list string))
        (name ^ ": recovery-failure keys")
        (List.sort_uniq compare (Report.recovery_failure_keys o.Runner.o_report))
        (sorted_keys Witness.Recovery_failure e.Witness.witnesses))
    cases

let test_corpus_jobs_invariant () =
  let demo = Option.get (lookup "demo-faulty-recovery") in
  let bytes_of outcome = Corpus.to_jsonl (Witness.of_outcome ~program:"p" outcome).Witness.witnesses in
  List.iter
    (fun (name, run) ->
      check_str name (bytes_of (run ~jobs:1)) (bytes_of (run ~jobs:4)))
    [ ("cceh mc", fun ~jobs -> Runner.model_check_outcome ~jobs Pm_benchmarks.Cceh.program);
      ("demo mc-recovery", fun ~jobs -> Runner.model_check_recovery_outcome ~jobs demo);
      ("fast-fair random",
       fun ~jobs -> Runner.random_mode_outcome ~jobs ~execs:8 Pm_benchmarks.Fast_fair.program) ]

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)

let test_replay_reproduces () =
  let ws =
    mc_witnesses toy
    @ (Witness.of_outcome ~program:"demo-faulty-recovery"
         (Runner.model_check_recovery_outcome
            (Option.get (lookup "demo-faulty-recovery"))))
        .Witness.witnesses
  in
  let r = Replay.replay_all ~lookup ws in
  check_int "all witnesses reproduce" r.Replay.total r.Replay.reproduced;
  check "no failures" true (r.Replay.failures = [])

let test_replay_detects_regression () =
  let w = List.hd (mc_witnesses toy) in
  (* A fixed bug: the recorded key is no longer raised. *)
  (match Replay.replay_one ~lookup { w with Witness.key = "not a real key" } with
  | Ok () -> Alcotest.fail "bogus key must not reproduce"
  | Error msg ->
      check "diff names the observed keys" true
        (try ignore (Str.search_forward (Str.regexp_string w.Witness.key) msg 0); true
         with Not_found -> false));
  (* A vanished program is an error, not a crash. *)
  match Replay.replay_one ~lookup { w with Witness.program = "gone" } with
  | Ok () -> Alcotest.fail "unknown program must fail"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Minimization                                                         *)

let plan_index = function
  | Executor.Crash_before_flush n | Executor.Crash_before_op n -> n
  | Executor.Crash_at_end | Executor.Run_to_end -> max_int

let test_minimize_shrinks_and_reproduces () =
  let ws = mc_witnesses Pm_benchmarks.Cceh.program in
  check "cceh yields witnesses" true (ws <> []);
  List.iter
    (fun (s : Minimize.shrink) ->
      check "original reproduced" true s.Minimize.reproduced;
      check "plan index did not grow" true
        (plan_index s.Minimize.minimized.Witness.plan
        <= plan_index s.Minimize.original.Witness.plan);
      check "minimized witness is deterministic" true
        (not (Scenario.options_randomized s.Minimize.minimized.Witness.options));
      (* The contract: a minimized corpus replays clean. *)
      match Replay.replay_one ~lookup s.Minimize.minimized with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("minimized witness lost its race: " ^ msg))
    (Minimize.minimize_all ~lookup ws)

let test_minimize_derandomizes () =
  let e =
    Witness.of_outcome ~program:"toy" (Runner.random_mode_outcome ~execs:6 toy)
  in
  check "random mode found the toy race" true (e.Witness.witnesses <> []);
  List.iter
    (fun (s : Minimize.shrink) ->
      check "reproduced" true s.Minimize.reproduced;
      check "derandomized" true s.Minimize.derandomized;
      check "no RNG left in options" true
        (not (Scenario.options_randomized s.Minimize.minimized.Witness.options));
      match Replay.replay_one ~lookup s.Minimize.minimized with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    (Minimize.minimize_all ~lookup e.Witness.witnesses)

let test_minimize_stale_witness () =
  let w = List.hd (mc_witnesses toy) in
  let s = Minimize.minimize ~lookup { w with Witness.key = "fixed bug" } in
  check "stale witness flagged" false s.Minimize.reproduced;
  check_str "returned unchanged" (Witness.encode s.Minimize.original)
    (Witness.encode s.Minimize.minimized)

(* ------------------------------------------------------------------ *)
(* Corpus management                                                    *)

let test_merge_idempotent () =
  let ws = mc_witnesses toy @ mc_witnesses Pm_benchmarks.Cceh.program in
  let merged, folded = Corpus.merge [ ws; ws ] in
  check_str "self-merge is the identity" (Corpus.to_jsonl ws)
    (Corpus.to_jsonl merged);
  check_int "every duplicate folded" (List.length ws) folded

let test_save_load_roundtrip () =
  let ws = mc_witnesses toy in
  let path = Filename.temp_file "yashme-corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Corpus.save path ws;
      match Corpus.load path with
      | Error msg -> Alcotest.fail msg
      | Ok ws' ->
          check_str "bytes survive the disk trip" (Corpus.to_jsonl ws)
            (Corpus.to_jsonl ws'))

let test_load_reports_line () =
  let path = Filename.temp_file "yashme-corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Witness.encode (List.hd (mc_witnesses toy)) ^ "\n");
      output_string oc "{\"v\":1,broken\n";
      close_out oc;
      match Corpus.load path with
      | Ok _ -> Alcotest.fail "malformed line must fail the load"
      | Error msg ->
          check "error carries file:line" true
            (try ignore (Str.search_forward (Str.regexp_string ":2:") msg 0); true
             with Not_found -> false))

let test_stats () =
  let demo = Option.get (lookup "demo-faulty-recovery") in
  let ws =
    mc_witnesses toy
    @ (Witness.of_outcome ~program:"demo-faulty-recovery"
         (Runner.model_check_recovery_outcome demo))
        .Witness.witnesses
  in
  let s = Corpus.stats ws in
  check_int "totals add up" s.Corpus.total (s.Corpus.races + s.Corpus.recovery_failures);
  check "per-program counts sum to total" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Corpus.programs = s.Corpus.total)

(* ------------------------------------------------------------------ *)
(* Golden rendering of a litmus race witness (E+ combined with E')      *)

(* The smallest racy litmus program: one plain store whose flush the
   crash cuts off.  Pinning the rendered witness text keeps the
   explanation (consistent prefix CVpre, the racing store, the E+/E'
   phrasing) from drifting silently. *)
let litmus_torn =
  Program.make ~name:"litmus-torn"
    ~setup:(fun () ->
      let a = Pmem.alloc ~align:64 8 in
      Pmem.set_root 0 a)
    ~pre:(fun () ->
      let a = Pmem.get_root 0 in
      Pmem.store ~label:"val" a 0x1234L;
      Pmem.clflush a;
      Pmem.mfence ())
    ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
    ()

let golden_explain =
  "persistency race on val: non-atomic store[val tid=0 lclk=2 seq=1 0x40..+8 \
   = 4660 plain] races with crash (exec 1); observed by load of 0x40..+8 in \
   exec 2\n\
   \  witness (E+ combined with E'):\n\
   \    consistent prefix CVpre = <0:2> (1 of 1 committed events)\n\
   \    | store[val tid=0 lclk=2 seq=1 0x40..+8 = 4660 plain]\n\
   \    the racing store itself: store[val tid=0 lclk=2 seq=1 0x40..+8 = 4660 \
   plain]\n\
   \    every pre-crash prefix extending E+ without flushing this store\n\
   \    crashes with the store only partially persistent.\n"

let explain_text () =
  let detector, trace =
    Runner.run_once_traced ~plan:(Executor.Crash_before_flush 0) litmus_torn
  in
  match Yashme.Detector.races detector with
  | [] -> Alcotest.fail "litmus-torn must race when its flush is cut off"
  | race :: _ -> Pm_harness.Witness.explain ~trace ~detector ~race ()

let test_explain_golden () =
  check_str "pinned witness rendering" golden_explain (explain_text ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "corpus"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
        ] );
      ( "json-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_json_reencode; prop_json_never_raises ] );
      ( "witness",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_witness_roundtrip;
          Alcotest.test_case "version gate" `Quick test_witness_rejects_bad_version;
          Alcotest.test_case "v1 compat (pre-variant)" `Quick
            test_witness_v1_compat;
          Alcotest.test_case "variant round-trip + replay" `Quick
            test_witness_variant_roundtrip;
          Alcotest.test_case "golden explain rendering" `Quick test_explain_golden;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "corpus keys == report keys" `Quick
            test_corpus_keys_match_report;
          Alcotest.test_case "bytes identical across jobs" `Quick
            test_corpus_jobs_invariant;
        ] );
      ( "replay",
        [
          Alcotest.test_case "corpus reproduces" `Quick test_replay_reproduces;
          Alcotest.test_case "regression detected" `Quick
            test_replay_detects_regression;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "shrinks and still reproduces" `Slow
            test_minimize_shrinks_and_reproduces;
          Alcotest.test_case "derandomizes random-mode findings" `Quick
            test_minimize_derandomizes;
          Alcotest.test_case "stale witness kept unchanged" `Quick
            test_minimize_stale_witness;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "merge idempotent" `Quick test_merge_idempotent;
          Alcotest.test_case "save/load round-trip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "load error carries position" `Quick
            test_load_reports_line;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
