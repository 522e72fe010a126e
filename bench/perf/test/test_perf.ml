(* The benchmark's own checks: the committed BENCHMARK.json is what
   [perf.exe spec] renders; every workload, run as a smoke pass both
   untraced and traced, exits 0 and reports every metric of the spec with
   its unit on its last line; and [compare]'s verdict rules. *)

open Perfbench

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let run_capture argv =
  let ic = Unix.open_process_args_in argv.(0) argv in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let last_line out =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

let check_spec () =
  let committed = In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all in
  let _, rendered = run_capture [| "../perf.exe"; "spec" |] in
  if rendered <> committed then fail "BENCHMARK.json differs from `perf.exe spec`"

let check_workload (w : Spec.workload) trace =
  let status, out =
    run_capture
      [|
        "../perf.exe"; "--workload"; w.name; "--seed"; "42"; "--seconds"; "1"; "--trace";
        string_of_int trace; "--smoke";
      |]
  in
  let line = last_line out in
  if status <> Unix.WEXITED 0 then fail "%s --trace %d: non-zero exit\n%s" w.name trace out;
  if not (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": " line) then
    fail "%s --trace %d: not a correct result line: %s" w.name trace line;
  let expected =
    if trace = 0 then List.map (fun (m : Spec.metric) -> (m.name, m.unit)) Spec.end_to_end
    else List.map (fun (m : Spec.layer_metric) -> (m.l_name, m.l_unit)) Spec.per_layer
  in
  List.iter
    (fun (name, unit) ->
      let re =
        Str.regexp
          (Printf.sprintf "\"%s\": {\"value\": -?[0-9][0-9.e+-]*, \"unit\": \"%s\"}"
             (Str.quote name) (Str.quote unit))
      in
      match Str.search_forward re line 0 with
      | _ -> ()
      | exception Not_found -> fail "%s --trace %d: no %s in %s" w.name trace name unit)
    expected

let check_verdicts () =
  let m = Option.get (Spec.find_metric "scenarios_per_s") in
  let base = List.init 10 (fun i -> 1000. +. float i) in
  let judge fresh = let v, _, _ = Verdict.judge m ~base ~fresh in v in
  if judge base <> Verdict.Unchanged then fail "identical runs are not unchanged";
  if judge (List.map (fun x -> x *. 0.6) base) <> Verdict.Regression then
    fail "a 40%% drop is not a regression";
  if judge (List.map (fun x -> x *. 1.4) base) <> Verdict.Gain then fail "a 40%% rise is not a gain";
  match judge (List.filteri (fun i _ -> i < 9) base) with
  | Verdict.Unresolved _ -> ()
  | _ -> fail "nine pairs are not unresolved"

let () =
  check_spec ();
  check_verdicts ();
  List.iter (fun w -> List.iter (check_workload w) [ 0; 1 ]) Spec.workloads;
  match List.rev !failures with
  | [] -> print_endline "bench/perf: spec, verdicts and smoke runs ok"
  | fs ->
      List.iter prerr_endline fs;
      exit 1
