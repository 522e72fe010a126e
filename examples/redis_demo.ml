(* Runs the Redis-pmem port under the random-mode detector, the way the
   paper evaluates the larger frameworks (section 7.1), and then shows a
   functional session against the simulated server.

   Run with: dune exec examples/redis_demo.exe *)

open Pm_runtime

let () =
  (* A functional session first: SET/GET against the PM-backed store. *)
  let _ =
    Executor.run ~exec_id:0 (fun () ->
        let t = Pm_benchmarks.Redis.start () in
        Pm_benchmarks.Redis.set t ~key:7 ~value:"persistent";
        Pm_benchmarks.Redis.set t ~key:9 ~value:"memory";
        (match Pm_benchmarks.Redis.get t ~key:7 with
        | Some v -> Printf.printf "GET 7 -> %S\n" v
        | None -> print_endline "GET 7 -> (nil)");
        match Pm_benchmarks.Redis.get t ~key:9 with
        | Some v -> Printf.printf "GET 9 -> %S\n" v
        | None -> print_endline "GET 9 -> (nil)")
  in

  (* Crash-restart: values survive a crash after the SETs completed. *)
  let boot = Executor.run ~plan:Executor.Crash_at_end ~exec_id:0 (fun () ->
      let t = Pm_benchmarks.Redis.start () in
      Pm_benchmarks.Redis.set t ~key:7 ~value:"persistent")
  in
  let _ = Executor.run ~inherited:boot.Executor.state ~exec_id:1 (fun () ->
      let t = Pm_benchmarks.Redis.open_existing () in
      match Pm_benchmarks.Redis.get t ~key:7 with
      | Some v -> Printf.printf "after crash+restart, GET 7 -> %S\n" v
      | None -> print_endline "after crash+restart, GET 7 -> (nil)")
  in

  (* Random-mode detection across several executions. *)
  print_endline "\nrandom-mode detection (20 executions):";
  let report =
    (Pm_harness.Runner.random_mode_outcome ~execs:20 Pm_benchmarks.Redis.program).o_report
  in
  print_endline (Pm_harness.Report.to_string report);
  print_endline "\nRedis reads are checksum-validated, so most findings are";
  print_endline "benign; the real finding (when a crash lands inside a";
  print_endline "transaction) is the PMDK ulog entry-pointer race that the";
  print_endline "paper notes \"could be revealed by Redis as well\" (section 7.2)."
