(* Model-checks the CCEH hashtable (the paper's motivating benchmark,
   Figure 3) and prints the resulting race report — the key and value
   fields of the Pair struct, bugs #1 and #2 of Table 3.

   Run with: dune exec examples/cceh_demo.exe *)

let () =
  print_endline "Model-checking CCEH: crash before every flush/fence of the";
  print_endline "insert workload, recovery after each crash...\n";
  let report =
    (Pm_harness.Runner.model_check_outcome Pm_benchmarks.Cceh.program).o_report
  in
  print_endline (Pm_harness.Report.to_string report);
  print_newline ();

  (* Show one concrete failure: crash in the window between the value
     and key stores and their flush, then recover and observe. *)
  let detector = Yashme.Detector.create () in
  let d, pre, _post =
    Pm_harness.Runner.run_once ~plan:(Pm_runtime.Executor.Crash_before_flush 2)
      Pm_benchmarks.Cceh.program
  in
  ignore detector;
  Printf.printf "one concrete run: crashed at op %s, race reports:\n"
    (match pre.Pm_runtime.Executor.crashed_at_op with
    | Some i -> string_of_int i
    | None -> "-");
  List.iter
    (fun r -> Printf.printf "  %s\n" (Yashme.Race.to_string r))
    (Yashme.Detector.races d);

  print_endline "\nthe fix (paper, section 3.1): store the key with an atomic";
  print_endline "release store; on x86 this compiles to the same mov and";
  print_endline "costs nothing, but forbids the compiler from tearing it."
