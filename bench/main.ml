(* Regenerates every table and figure of the paper's evaluation:

     Figure 1    torn-store scenario (race detected, mixed value read)
     Table 1     Px86 reordering constraints
     Table 2a    compiler store-optimization catalog
     Table 2b    source vs assembly memory operations
     Table 3     19 races in CCEH / FAST_FAIR / RECIPE (model checking)
     Table 4     5 races in PMDK / Memcached / Redis (random mode)
     Table 5     prefix vs baseline + Yashme vs Jaaru runtimes
     Figures 4-6 detection scenarios (see also examples/scenarios.exe)

   plus the ablations.  Absolute numbers differ from the paper
   (different substrate, simulated machine); the shapes are the
   reproduction target (see EXPERIMENTS.md). *)

module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Registry = Pm_benchmarks.Registry
module Pretty = Yashme_util.Pretty

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Figure 1                                                             *)

let figure1 () =
  section "Figure 1: persistency race on pmobj->val";
  let detector = Yashme.Detector.create () in
  let open Pm_runtime in
  let pre () =
    let pmobj = Pmem.alloc ~align:64 8 in
    Pmem.set_root 0 pmobj;
    Pm_compiler.Tearing.store_paired ~label:"pmobj->val" pmobj 0x1234567812345678L;
    Pmem.clflush pmobj;
    Pmem.mfence ()
  in
  let observed = ref 0L in
  let post () = observed := Pmem.load (Pmem.get_root 0) in
  (* Crash between the torn halves (ops: root store/flush/fence = 0-2,
     low half = 3, high half = 4). *)
  let crashed =
    Executor.run ~detector ~plan:(Executor.Crash_before_op 4) ~exec_id:0 pre
  in
  let _ = Executor.run ~detector ~inherited:crashed.Executor.state ~exec_id:1 post in
  Printf.printf "stored 0x1234567812345678, post-crash read 0x%Lx\n" !observed;
  Printf.printf "detector reports: %d race(s) on pmobj->val\n"
    (List.length (Yashme.Detector.races detector))

(* ------------------------------------------------------------------ *)
(* Tables 1, 2a, 2b                                                     *)

let table1 () =
  section "Table 1: reordering constraints in Px86";
  print_endline (Px86.Reorder.table ())

let table2a () =
  section "Table 2a: compiler store optimizations";
  print_endline (Pm_compiler.Passes.table_2a ())

let table2b () =
  section "Table 2b: #mem-ops in source vs clang -O3 assembly";
  print_endline (Pm_compiler.Programs.table_2b ());
  print_endline "(paper: CCEH 6/33, Fast_Fair 1/4, P-ART 17/8, P-BwTree 6/15,";
  print_endline " P-CLHT 0/0, P-Masstree 3/14)"

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)

let table3 () =
  section "Table 3: races found in CCEH, FAST_FAIR and RECIPE (model checking)";
  let n = ref 0 in
  let rows =
    List.concat_map
      (fun p ->
        let r = Runner.model_check p in
        List.map
          (fun (f : Report.finding) ->
            incr n;
            [ string_of_int !n; r.Report.program; f.Report.label ])
          (Report.real r))
      Registry.indexes
  in
  print_endline (Pretty.table ~header:[ "#"; "Benchmark"; "Root Cause of Bug" ] rows);
  Printf.printf "total: %d races (paper: 19)\n" !n;
  !n

(* ------------------------------------------------------------------ *)
(* Table 4                                                              *)

let table4 () =
  section "Table 4: races found in PMDK, Redis and Memcached (random mode)";
  (* PMDK is exercised through its five example programs; findings
     deduplicate to the library-level bug, as in the paper. *)
  let execs = 40 in
  let group name programs =
    let findings =
      List.concat_map
        (fun p ->
          let r = Runner.random_mode ~execs p in
          Report.real r)
        programs
    in
    let labels =
      List.sort_uniq compare
        (List.map (fun (f : Report.finding) -> f.Report.label) findings)
    in
    (name, labels)
  in
  let pmdk =
    group "PMDK"
      [ Pm_benchmarks.Pmdk_btree.program; Pm_benchmarks.Pmdk_ctree.program;
        Pm_benchmarks.Pmdk_rbtree.program; Pm_benchmarks.Pmdk_hashmap.program_atomic;
        Pm_benchmarks.Pmdk_hashmap.program_tx ]
  in
  let redis = group "Redis" [ Pm_benchmarks.Redis.program ] in
  let memcached = group "Memcached" [ Pm_benchmarks.Memcached.program ] in
  (* A label seen in several programs is one bug (the paper notes the
     PMDK races "could be revealed by Redis as well"). *)
  let seen = Hashtbl.create 8 in
  let n = ref 0 in
  let rows =
    List.concat_map
      (fun (name, labels) ->
        List.map
          (fun l ->
            if Hashtbl.mem seen l then [ "-"; name; l ^ "  (same bug as above)" ]
            else begin
              Hashtbl.add seen l ();
              incr n;
              [ string_of_int !n; name; l ]
            end)
          labels)
      [ pmdk; memcached; redis ]
  in
  print_endline (Pretty.table ~header:[ "#"; "Benchmark"; "Root Cause of Bug" ] rows);
  Printf.printf
    "total: %d distinct races (paper: 5 = 1 PMDK + 4 Memcached; Redis's reads\n" !n;
  print_endline "are checksum-validated and its PMDK-library finding is the same";
  print_endline "library bug, cf. section 7.2)";
  !n

(* ------------------------------------------------------------------ *)
(* Table 5                                                              *)

(* Wall clock, not [Sys.time]: CPU time misreports parallel engine runs. *)
let time_s f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let table5 () =
  section "Table 5: prefix vs baseline (single random execution) + runtimes";
  let tp = ref 0 and tb = ref 0 in
  let rows =
    List.map
      (fun (p : Pm_harness.Program.t) ->
        let opts mode = { Runner.default_options with mode } in
        let rp, yashme_t =
          time_s (fun () ->
              Runner.single_random ~options:(opts Yashme.Detector.Prefix) p)
        in
        let rb = Runner.single_random ~options:(opts Yashme.Detector.Baseline) p in
        let jaaru_t = Runner.time_without_detector p in
        let np = List.length (Report.real rp) in
        let nb = List.length (Report.real rb) in
        tp := !tp + np;
        tb := !tb + nb;
        [ p.Pm_harness.Program.name; string_of_int np; string_of_int nb;
          Printf.sprintf "%.4fs" yashme_t; Printf.sprintf "%.4fs" jaaru_t ])
      Registry.all
  in
  print_endline
    (Pretty.table
       ~header:[ "Benchmark"; "Prefix"; "Baseline"; "Yashme Time"; "Jaaru Time" ]
       rows);
  Printf.printf "totals: prefix %d vs baseline %d (%.1fx more; paper: 5x)\n" !tp !tb
    (if !tb = 0 then Float.infinity else float_of_int !tp /. float_of_int !tb);
  (* One draw is noisy (the paper's A.8 says the same); sweep seeds for a
     stable aggregate. *)
  let sp = ref 0 and sb = ref 0 in
  for seed = 1 to 10 do
    List.iter
      (fun p ->
        let opts mode = { Runner.default_options with mode; seed } in
        let rp = Runner.single_random ~options:(opts Yashme.Detector.Prefix) p in
        let rb = Runner.single_random ~options:(opts Yashme.Detector.Baseline) p in
        sp := !sp + List.length (Report.real rp);
        sb := !sb + List.length (Report.real rb))
      Registry.all
  done;
  Printf.printf "10-seed sweep: prefix %d vs baseline %d (%.1fx more)\n" !sp !sb
    (if !sb = 0 then Float.infinity else float_of_int !sp /. float_of_int !sb)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)

let ablations () =
  section "Ablations (single execution, crash at end; real races)";
  (* full     — the shipped detector (prefix + coherence + candidates)
     -cand    — only committed reads checked (no Jaaru candidate sets)
     -coher   — condition (2) disabled (expect FALSE POSITIVES)
     baseline — no prefix expansion (Table 5's comparison)
     eADR     — section 7.5 persistency semantics (subset of full) *)
  let configs =
    [
      ("full", Runner.default_options);
      ("-cand", { Runner.default_options with check_candidates = false });
      ("-coher", { Runner.default_options with coherence = false });
      ("baseline", { Runner.default_options with mode = Yashme.Detector.Baseline });
      ("eADR", { Runner.default_options with eadr = true });
    ]
  in
  (* Two micro-programs that isolate the conditions: "overwrite" has a
     flushed older store under the racy latest one (only candidate
     checking reports both); "coherence" is Figure 5(a) (only condition
     (2) keeps it race-free). *)
  let open Pm_runtime in
  let overwrite =
    Pm_harness.Program.make ~name:"micro-overwrite"
      ~setup:(fun () ->
        let a = Pmem.alloc ~align:64 8 in
        Pmem.set_root 0 a)
      ~pre:(fun () ->
        let a = Pmem.get_root 0 in
        Pmem.store ~label:"old" a 1L;
        Pmem.clflush a;
        Pmem.mfence ();
        Pmem.store ~label:"new" a 2L)
      ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
      ()
  in
  let coherence_micro =
    Pm_harness.Program.make ~name:"micro-coherence"
      ~setup:(fun () ->
        let a = Pmem.alloc ~align:64 16 in
        Pmem.set_root 0 a)
      ~pre:(fun () ->
        let a = Pmem.get_root 0 in
        Pmem.store ~label:"x" a 1L;
        Pmem.store ~label:"y" ~atomic:Px86.Access.Release (a + 8) 1L)
      ~post:(fun () ->
        let a = Pmem.get_root 0 in
        ignore (Pmem.load ~atomic:Px86.Access.Acquire (a + 8));
        ignore (Pmem.load a))
      ()
  in
  let programs =
    [ overwrite; coherence_micro; Pm_benchmarks.Cceh.program;
      Pm_benchmarks.Fast_fair.program; Pm_benchmarks.P_clht.program;
      Pm_benchmarks.P_masstree.program; Pm_benchmarks.Pmdk_btree.program ]
  in
  let rows =
    List.map
      (fun (p : Pm_harness.Program.t) ->
        p.Pm_harness.Program.name
        :: List.map
             (fun (_, options) ->
               let d, _, _ =
                 Runner.run_once ~options ~plan:Pm_runtime.Executor.Crash_at_end p
               in
               let report =
                 Report.dedup ~program:p.Pm_harness.Program.name ~executions:1
                   (Yashme.Detector.races d)
               in
               string_of_int (List.length (Report.real report)))
             configs)
      programs
  in
  print_endline
    (Pretty.table ~header:("Benchmark" :: List.map fst configs) rows);
  print_endline "(-cand misses races on flushed-then-overwritten fields; -coher";
  print_endline " over-reports by ignoring Figure 5(a)'s cache-coherence argument;";
  print_endline " baseline needs the crash inside the window, so a crash at program";
  print_endline " end finds nothing; eADR <= full, as section 7.5 argues.)";

  section "Ablation: crash-point density (Memcached, model checking)";
  (* Crash before every k-th flush point.  The baseline needs the crash
     to land inside each store-to-flush window, so it decays as crash
     points thin out; prefix-based expansion keeps finding the races
     from a handful of crashes — the paper's key claim (section 4.2). *)
  let p = Pm_benchmarks.Memcached.program in
  let points = Runner.count_flush_points p in
  let races_with options plans =
    let races =
      List.concat_map
        (fun plan ->
          let d, _, _ = Runner.run_once ~options ~plan p in
          Yashme.Detector.races d)
        plans
    in
    let report =
      Report.dedup ~program:"memcached" ~executions:(List.length plans) races
    in
    List.length (Report.real report)
  in
  let rows =
    List.map
      (fun stride ->
        let plans =
          List.filteri (fun i _ -> i mod stride = 0)
            (List.init points (fun n -> Pm_runtime.Executor.Crash_before_flush n))
        in
        let prefix = races_with Runner.default_options plans in
        let baseline =
          races_with { Runner.default_options with mode = Yashme.Detector.Baseline } plans
        in
        [ Printf.sprintf "every %d" stride; string_of_int (List.length plans);
          string_of_int prefix; string_of_int baseline ])
      [ 1; 2; 4; 8; 16 ]
  in
  print_endline
    (Pretty.table ~header:[ "crash density"; "executions"; "prefix"; "baseline" ] rows)

(* ------------------------------------------------------------------ *)

let () =
  (* The harness takes no arguments: a stray or stale flag is an error
     naming it (exit 2), never a silent full run. *)
  if Array.length Sys.argv > 1 then begin
    Printf.eprintf "usage: %s (no arguments); unexpected argument %S\n"
      (Filename.basename Sys.argv.(0)) Sys.argv.(1);
    exit 2
  end;
  print_endline "Yashme reproduction benchmark harness";
  print_endline
    "(shapes, not absolute numbers, are the target; see EXPERIMENTS.md)";
  figure1 ();
  table1 ();
  table2a ();
  table2b ();
  let t3 = table3 () in
  let t4 = table4 () in
  table5 ();
  ablations ();
  section "Summary";
  Printf.printf "distinct real persistency races found: %d (paper: 24)\n"
    (t3 + t4)
