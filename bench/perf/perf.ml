(* The repository benchmark.

     perf.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--jsonl FILE]
         measure one workload in this process; the last line of standard
         output is the result object, and the exit code is 1 when a
         correctness check failed
     perf.exe run [--seed N] [--traced] [--out FILE]
         measure every workload, each in a fresh process, writing the
         flat JSONL lines of all of them to FILE (default perf.jsonl)
     perf.exe compare BASE.jsonl... -- NEW.jsonl...
         judge a change against its parent with the bounds of the spec
     perf.exe spec
         print BENCHMARK.json *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perf.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--jsonl FILE]\n\
    \       perf.exe run [--seed N] [--traced] [--out FILE]\n\
    \       perf.exe compare BASE.jsonl... -- NEW.jsonl...\n\
    \       perf.exe spec";
  exit 2

let parse args specs =
  let anon = ref [] in
  match Arg.parse_argv ~current:(ref 0) (Array.of_list ("perf.exe" :: args)) specs
          (fun a -> anon := a :: !anon) ""
  with
  | () -> List.rev !anon
  | exception (Arg.Bad msg | Arg.Help msg) ->
      prerr_string msg;
      usage ()

let measure args =
  let workload = ref "" and seed = ref 42 and seconds = ref Spec.run_seconds in
  let trace = ref 0 and smoke = ref false and jsonl = ref "" in
  let rest =
    parse args
      [
        ("--workload", Arg.Set_string workload, "");
        ("--seed", Arg.Set_int seed, "");
        ("--seconds", Arg.Set_int seconds, "");
        ("--trace", Arg.Set_int trace, "");
        ("--smoke", Arg.Set smoke, "");
        ("--jsonl", Arg.Set_string jsonl, "");
      ]
  in
  let w =
    match Spec.find_workload !workload with
    | Some w when rest = [] && (!trace = 0 || !trace = 1) -> w
    | _ -> usage ()
  in
  let seconds = float !seconds and seed = !seed and smoke = !smoke in
  let o =
    if !trace = 1 then Layers.run w ~seed ~seconds ~smoke
    else Measure.run w ~seed ~seconds ~smoke
  in
  Measure.print_human o ~workload:w.name;
  if !jsonl <> "" then
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 !jsonl (fun oc ->
        List.iter
          (fun l -> output_string oc (l ^ "\n"))
          (Measure.jsonl_lines o ~workload:w.name ~seed ~traced:(!trace = 1)));
  print_endline (Measure.result_line o);
  exit (if o.problems = [] then 0 else 1)

(* Each workload in a fresh process, one after another. *)
let run args =
  let seed = ref 42 and traced = ref false and out = ref "perf.jsonl" in
  let rest =
    parse args
      [
        ("--seed", Arg.Set_int seed, "");
        ("--traced", Arg.Set traced, "");
        ("--out", Arg.Set_string out, "");
      ]
  in
  if rest <> [] then usage ();
  Out_channel.with_open_text !out ignore;
  let ok =
    List.for_all Fun.id
      (List.map
         (fun (w : Spec.workload) ->
           let argv =
             [
               Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed;
               "--seconds"; string_of_int Spec.run_seconds; "--trace";
               (if !traced then "1" else "0"); "--jsonl"; !out;
             ]
           in
           let pid =
             Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
               Unix.stderr
           in
           match Unix.waitpid [] pid with
           | _, Unix.WEXITED 0 -> true
           | _ ->
               Printf.printf "%s: FAILED\n%!" w.name;
               false)
         Spec.workloads)
  in
  exit (if ok then 0 else 1)

let compare args =
  let rec split acc = function
    | "--" :: fresh -> (List.rev acc, fresh)
    | a :: rest -> split (a :: acc) rest
    | [] -> usage ()
  in
  let base, fresh = split [] args in
  if base = [] || fresh = [] then usage ();
  exit (if Verdict.compare ~base ~fresh then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "spec" :: [] -> print_string (Spec.render ())
  | "run" :: args -> run args
  | "compare" :: args -> compare args
  | args -> measure args
