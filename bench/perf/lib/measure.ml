(* The untraced run: set-up repetitions, one warm-up pass, then passes
   until the time budget is spent.  Every timing is a median over
   passes (or set-up repetitions) with its quartiles, scaled check by
   check with the reference kernel. *)

let now = Unix.gettimeofday

type reading = {
  name : string;
  unit : string;
  value : float;
  p25 : float;
  p75 : float;
  samples : int;  (* passes or repetitions behind the value *)
}

let of_samples ~name ~unit xs =
  let p25, p75 = Stats.quartiles xs in
  { name; unit; value = Stats.median xs; p25; p75; samples = List.length xs }

let single ~name ~unit v = { name; unit; value = v; p25 = v; p75 = v; samples = 1 }

type outcome = {
  readings : reading list;
  problems : string list;
  attempted : int;
  failed : int;
  passes : int;
  min_pass_scenarios : int;  (* fewest samples behind one pass's p99 *)
  scale : float;  (* median reference-kernel scale of the passes; 1 if unscaled *)
}

(* Peak resident set of this process, from /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float kb /. 1024.
        | None -> find ())
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let setup_times ?kernel (w : Spec.workload) ~seed ~smoke ~reps =
  List.init reps (fun _ ->
      let (), wall, scale = Reference.timed kernel (fun () -> Workload.setup_step w ~seed ~smoke) in
      wall *. scale)

(* Passes numbered from [first] until [seconds] have elapsed; a smoke
   run makes exactly one. *)
let timed_passes ~seconds ~smoke ~first pass =
  let deadline = now () +. seconds in
  let rec loop i acc =
    let acc = pass i :: acc in
    if smoke || now () >= deadline then List.rev acc else loop (i + 1) acc
  in
  loop first []

let run (w : Spec.workload) ~seed ~seconds ~smoke =
  let kernel = Reference.create ~jobs:w.jobs in
  let setup = setup_times ~kernel w ~seed ~smoke ~reps:(if smoke then 1 else 15) in
  let warm_up =
    if smoke then [] else [ Workload.run_pass ~kernel w ~seed ~index:0 ~smoke ~keep:false ]
  in
  let w0 = Workload.run_words () in
  (* Each pass keeps its percentiles, not its samples, so what the
     benchmark holds on to stays small next to the program's heap. *)
  let summaries =
    timed_passes ~seconds ~smoke ~first:1 (fun index ->
        let p = Workload.run_pass ~kernel w ~seed ~index ~smoke ~keep:false in
        (Stats.median p.walls, Stats.percentile 0.99 p.walls, { p with walls = [] }))
  in
  let words = Workload.run_words () -. w0 in
  let passes = List.map (fun (_, _, p) -> p) summaries in
  let scenarios = List.fold_left (fun acc (p : Workload.pass) -> acc + p.scenarios) 0 passes in
  let per_pass f = List.map f passes in
  let us x = x *. 1e6 in
  {
    readings =
      [
        of_samples ~name:"setup_s" ~unit:"s" setup;
        of_samples ~name:"scenarios_per_s" ~unit:"1/s"
          (per_pass (fun p -> float p.scenarios /. p.wall_s));
        of_samples ~name:"scenario_us_p50" ~unit:"us"
          (List.map (fun (p50, _, _) -> us p50) summaries);
        of_samples ~name:"scenario_us_p99" ~unit:"us"
          (List.map (fun (_, p99, _) -> us p99) summaries);
        single ~name:"alloc_words_per_scenario" ~unit:"words" (words /. float scenarios);
        single ~name:"peak_rss_mb" ~unit:"MB" (peak_rss_mb ());
      ];
    problems = Workload.problems w ~seed ~smoke (warm_up @ passes);
    attempted = scenarios;
    failed = List.fold_left (fun acc (p : Workload.pass) -> acc + p.failed) 0 passes;
    passes = List.length passes;
    min_pass_scenarios =
      List.fold_left (fun acc (p : Workload.pass) -> min acc p.scenarios) max_int passes;
    scale = Stats.median (per_pass (fun p -> p.wall_s /. p.raw_wall_s));
  }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

(* Full precision; non-finite values (an empty sample) print as 0 so
   the line stays JSON. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result line: the last line of standard output. *)
let result_line o =
  let metric r =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Pm_corpus.Json.escape r.name)
      (number r.value) (Pm_corpus.Json.escape r.unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.problems = []) o.attempted o.failed
    (String.concat ", " (List.map metric o.readings))

(* One flat JSONL line per metric, for [compare]. *)
let jsonl_lines o ~workload ~seed ~traced =
  List.map
    (fun r ->
      Pm_corpus.Json.encode_obj
        [
          ("workload", `S workload);
          ("metric", `S r.name);
          ("unit", `S r.unit);
          ("value", `F r.value);
          ("p25", `F r.p25);
          ("p75", `F r.p75);
          ("samples", `I r.samples);
          ("passes", `I o.passes);
          ("min_pass_scenarios", `I o.min_pass_scenarios);
          ("scale", `F o.scale);
          ("seed", `I seed);
          ("traced", `B traced);
          ("correct", `B (o.problems = []));
          ("nproc", `I (Domain.recommended_domain_count ()));
        ])
    o.readings

let print_human o ~workload =
  List.iter
    (fun r ->
      Printf.printf "%-12s %-28s %14.6g %-6s [p25 %.6g, p75 %.6g, n=%d]\n" workload r.name r.value
        r.unit r.p25 r.p75 r.samples)
    o.readings;
  Printf.printf "%-12s passes=%d attempted=%d failed=%d fewest-per-pass=%d scale=%.4f\n" workload
    o.passes o.attempted o.failed o.min_pass_scenarios o.scale;
  List.iter (fun p -> Printf.printf "%-12s INCORRECT: %s\n" workload p) o.problems
