(* Regenerates every table and figure of the paper's evaluation:

     Figure 1    torn-store scenario (race detected, mixed value read)
     Table 1     Px86 reordering constraints
     Table 2a    compiler store-optimization catalog
     Table 2b    source vs assembly memory operations
     Table 3     19 races in CCEH / FAST_FAIR / RECIPE (model checking)
     Table 4     5 races in PMDK / Memcached / Redis (random mode)
     Table 5     prefix vs baseline + Yashme vs Jaaru runtimes
     Figures 4-6 detection scenarios (see also examples/scenarios.exe)

   plus one Bechamel micro-benchmark per table.  Absolute numbers differ
   from the paper (different substrate, simulated machine); the shapes
   are the reproduction target (see EXPERIMENTS.md). *)

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
(* Exploration engine throughput                                        *)

module Engine = Pm_harness.Engine
module Telemetry = Pm_corpus.Telemetry

(* One emitted row: the best-of-N sample at one jobs level, with the
   reference (lowest) level's best elapsed for the speedup column.  The
   sample's counter diffs are jobs-invariant (each scenario runs exactly
   once), so they double as a cheap cross-check of the determinism
   contract; its GC word deltas are process-global and volatile. *)
type measure = {
  m_name : string;
  m_jobs : int;
  m_ref_elapsed_s : float;
  m_best : Telemetry.sample;
}

(* Model-check a few multi-flush-point benchmarks through the engine
   across [jobs_list] and report scenario/execution/op throughput, plus
   one machine-readable JSON line per emitted row (the driver consuming
   the bench output parses these).  Without a sweep, only the highest
   level emits (one row per benchmark, the historical shape); with
   [sweep] every level does, keyed [bench[jobs=N]].  The same lines are
   written to [out] — the summary file [yashme bench-diff] gates
   against a committed baseline — and, with [ledger], one run-manifest
   entry per row is appended for [yashme runs]/[yashme compare]. *)
let engine_throughput ~jobs_list ~repeats ~sweep ~out ?ledger () =
  let jobs_list = List.sort_uniq compare (List.filter (fun j -> j >= 1) jobs_list) in
  let jobs_list = if jobs_list = [] then [ 1 ] else jobs_list in
  let top = List.fold_left max 1 jobs_list in
  section
    (Printf.sprintf
       "Exploration engine throughput (model checking, jobs %s, best of %d)"
       (String.concat "," (List.map string_of_int jobs_list))
       (max 1 repeats));
  let programs =
    [ Pm_benchmarks.Cceh.program; Pm_benchmarks.Fast_fair.program;
      Pm_benchmarks.Memcached.program ]
  in
  let counter_of diff name =
    match List.assoc_opt name diff with Some v -> v | None -> 0
  in
  let elapsed (s : Telemetry.sample) =
    s.Telemetry.s_outcome.Runner.o_stats.Engine.elapsed_s
  in
  let ref_jobs = List.hd jobs_list in
  (* Interleaved best-of-N (Telemetry.best_of): a fixed jobs=1-first
     order would hand every later level a warmed allocator and memoized
     setup, the bias that made the committed speedups look worse than
     they were. *)
  let measured =
    Telemetry.with_session
      { Telemetry.off with metrics = true; attribution = true }
      (fun () ->
        List.concat_map
          (fun (p : Pm_harness.Program.t) ->
            let best =
              Telemetry.best_of ~repeats jobs_list (fun ~rep:_ ~jobs ->
                  Telemetry.measure ~jobs p)
            in
            List.map2
              (fun jobs s ->
                { m_name = p.Pm_harness.Program.name; m_jobs = jobs;
                  m_ref_elapsed_s = elapsed (List.hd best); m_best = s })
              jobs_list best
            |> List.filter (fun m -> sweep || m.m_jobs = top))
          programs)
  in
  (* Divisions guard against elapsed ~ 0 (a degenerate fast run must
     not print "inf", which is not JSON). *)
  let safe_div a b = if b > 0. then a /. b else 0. in
  let speedup_of m = safe_div m.m_ref_elapsed_s (elapsed m.m_best) in
  let efficiency_of m =
    safe_div (speedup_of m)
      (float_of_int m.m_jobs /. float_of_int (max 1 ref_jobs))
  in
  let rows =
    List.map
      (fun m ->
        let sn = m.m_best.Telemetry.s_outcome.Runner.o_stats in
        [ m.m_name; string_of_int sn.Engine.jobs;
          string_of_int sn.Engine.scenarios;
          string_of_int sn.Engine.executions; string_of_int sn.Engine.ops;
          Printf.sprintf "%.4fs" m.m_ref_elapsed_s;
          Printf.sprintf "%.4fs" sn.Engine.elapsed_s;
          Printf.sprintf "%.2fx" (speedup_of m);
          Printf.sprintf "%.0f%%" (100. *. efficiency_of m);
          Printf.sprintf "%.0f" (safe_div (float_of_int sn.Engine.ops) sn.Engine.elapsed_s) ])
      measured
  in
  print_endline
    (Pretty.table
       ~header:
         [ "Benchmark"; "jobs"; "scenarios"; "execs"; "ops";
           Printf.sprintf "jobs=%d" ref_jobs;
           "elapsed"; "speedup"; "efficiency"; "ops/s" ]
       rows);
  print_endline "engine-throughput JSON:";
  let json_lines =
    List.map
      (fun m ->
        let sn = m.m_best.Telemetry.s_outcome.Runner.o_stats in
        let e = m.m_best.Telemetry.s_extraction in
        let obs = m.m_best.Telemetry.s_observed in
        let c = counter_of obs.Telemetry.o_metrics in
        let dedup_rate =
          if e.Pm_corpus.Witness.raw = 0 then 0.0
          else
            float_of_int e.Pm_corpus.Witness.duplicates
            /. float_of_int e.Pm_corpus.Witness.raw
        in
        let executor_loads =
          c "executor/setup/loads" + c "executor/pre/loads"
          + c "executor/post/loads"
        in
        let executor_stores =
          c "executor/setup/stores" + c "executor/pre/stores"
          + c "executor/post/stores"
        in
        Yashme_util.Json.encode_obj
          [ ("bench", `S m.m_name);
            ("variant", `S Px86.Variant.default_label);
            ("jobs", `I sn.Engine.jobs);
            ("scenarios", `I sn.Engine.scenarios);
            ("faulted", `I sn.Engine.faulted);
            ("diverged", `I sn.Engine.diverged);
            ("executions", `I sn.Engine.executions);
            ("ops", `I sn.Engine.ops);
            ("elapsed_s_jobs1", `F m.m_ref_elapsed_s);
            ("elapsed_s", `F sn.Engine.elapsed_s);
            ("speedup", `F (speedup_of m));
            ("ops_per_s", `F (safe_div (float_of_int sn.Engine.ops) sn.Engine.elapsed_s));
            ("cpu_s", `F sn.Engine.cpu_s);
            ("detector_candidates", `I (c "detector/candidate_checks"));
            ("detector_prefix_expansions", `I (c "detector/prefix_expansions"));
            ("detector_cv_comparisons", `I (c "detector/cv_comparisons"));
            ("detector_races_raised", `I (c "detector/races_raised"));
            ("detector_races_benign", `I (c "detector/races_benign"));
            ("executor_loads", `I executor_loads);
            ("executor_stores", `I executor_stores);
            ("px86_sb_evictions", `I (c "px86/sb_evictions"));
            ("px86_fb_applies", `I (c "px86/fb_applies"));
            ("px86_crashes", `I (c "px86/crash_materializations"));
            ("witnesses_emitted", `I (List.length e.Pm_corpus.Witness.witnesses));
            ("corpus_dedup_rate", `F dedup_rate);
            (* Observability columns (wall-clock class: process-global
               GC deltas and snapshot-copy volume).  Appended last so
               older baselines diff cleanly — bench-diff ignores extra
               metrics it wasn't asked to compare. *)
            ("gc_minor_words", `I obs.Telemetry.o_gc_minor_words);
            ("gc_major_words", `I obs.Telemetry.o_gc_major_words);
            ("snapshot_bytes", `I (c "px86/snapshot_bytes"));
            ("oracle_invariants", `I (c "oracle/invariants"));
            ("oracle_violations", `I (c "oracle/violations"));
            (* Scaling-gate column (bench-diff --scaling), newest last. *)
            ("efficiency", `F (efficiency_of m)) ])
      measured
  in
  List.iter print_endline json_lines;
  Yashme_util.Atomic_file.write out
    (String.concat "" (List.map (fun l -> l ^ "\n") json_lines));
  Printf.printf "engine-throughput summary written to %s\n" out;
  Option.iter
    (fun file ->
      List.iter
        (fun m ->
          let s = m.m_best in
          Pm_corpus.Ledger_store.append file
            (Telemetry.outcome_entry Telemetry.off ~mode:"bench"
               ~seed:Runner.default_options.Runner.seed ~program:m.m_name
               s.Telemetry.s_outcome s.Telemetry.s_extraction
               s.Telemetry.s_observed))
        measured;
      Printf.printf "ledger: %d bench run(s) appended to %s\n"
        (List.length measured) file)
    ledger

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
(* Bechamel micro-benchmarks: one Test.make per table                   *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let open Toolkit in
  let cceh = Pm_benchmarks.Cceh.program in
  let memcached = Pm_benchmarks.Memcached.program in
  let tests =
    Test.make_grouped ~name:"yashme"
      [
        Test.make ~name:"figure1-scenario"
          (Staged.stage (fun () ->
               let open Pm_runtime in
               let d = Yashme.Detector.create () in
               let pre () =
                 let x = Pmem.alloc ~align:64 8 in
                 Pmem.set_root 0 x;
                 Pmem.store ~label:"x" x 1L;
                 Pmem.clflush x;
                 Pmem.mfence ()
               in
               let r =
                 Executor.run ~detector:d ~plan:Executor.Crash_at_end ~exec_id:0 pre
               in
               ignore
                 (Executor.run ~detector:d ~inherited:r.Executor.state ~exec_id:1
                    (fun () -> ignore (Pmem.load (Pmem.get_root 0))))));
        Test.make ~name:"table1-reorder-matrix"
          (Staged.stage (fun () ->
               List.iter
                 (fun e ->
                   List.iter
                     (fun l ->
                       ignore
                         (Px86.Reorder.required ~earlier:e ~later:l ~same_line:false))
                     Px86.Reorder.all_kinds)
                 Px86.Reorder.all_kinds));
        Test.make ~name:"table2-optimizer-pipeline"
          (Staged.stage (fun () ->
               List.iter
                 (fun p -> ignore (Pm_compiler.Programs.counts p))
                 Pm_compiler.Programs.all));
        Test.make ~name:"table3-model-check-cceh"
          (Staged.stage (fun () -> ignore (Runner.model_check cceh)));
        Test.make ~name:"table4-random-exec-memcached"
          (Staged.stage (fun () -> ignore (Runner.single_random memcached)));
        Test.make ~name:"table5-prefix-vs-baseline"
          (Staged.stage (fun () ->
               let opts mode = { Runner.default_options with mode } in
               ignore (Runner.single_random ~options:(opts Yashme.Detector.Prefix) cceh);
               ignore
                 (Runner.single_random ~options:(opts Yashme.Detector.Baseline) cceh)));
      ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances tests in
    let results = List.map (fun i -> Analyze.all ols i raw) instances in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  let clock = Measure.label Instance.monotonic_clock in
  match Hashtbl.find_opt results clock with
  | None -> print_endline "(no results)"
  | Some tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ t ] -> Printf.sprintf "%.2f us/run" (t /. 1_000.0)
            | Some _ | None -> "n/a"
          in
          rows := [ name; est ] :: !rows)
        tbl;
      print_endline (Pretty.table ~header:[ "bench"; "time" ] (List.sort compare !rows))

(* ------------------------------------------------------------------ *)

(* Flags are scanned by hand; a malformed value is an error naming the
   flag (exit 2), never a silent default. *)
let flag name =
  let rec scan = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let bad name v need =
  Printf.eprintf "bad %s %S: need %s\n" name v need;
  exit 2

let int_flag name ~default =
  match flag name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with Some n -> n | None -> bad name v "an integer")

(* [--jobs N] sizes the engine's domain pool for the throughput section
   (default 4, the evaluation's comparison point). *)
let jobs_arg = int_flag "--jobs" ~default:4

(* [--jobs-sweep 1,2,4] emits one throughput row per jobs level instead
   of only the top one — the input of yashme bench-diff --scaling. *)
let jobs_sweep_arg =
  Option.map
    (fun v ->
      match Telemetry.parse_levels v with
      | Some levels -> levels
      | None -> bad "--jobs-sweep" v "comma-separated integers >= 1")
    (flag "--jobs-sweep")

(* [--repeats N] (default 2) interleaves N measurement passes over the
   jobs levels and keeps the best elapsed per level. *)
let repeats_arg = max 1 (int_flag "--repeats" ~default:2)

(* [--out FILE] places the engine-throughput summary (default: the
   baseline path committed at the repo root). *)
let out_arg = Option.value (flag "--out") ~default:"BENCH_engine_throughput.json"

(* [--ledger FILE] appends one run-manifest entry per benchmark to the
   ledger, mode "bench" (see yashme runs / yashme compare). *)
let ledger_arg = flag "--ledger"

(* [--throughput-only] skips the paper tables: the fast path CI's bench
   gate runs twice back to back. *)
let throughput_only = Array.exists (String.equal "--throughput-only") Sys.argv

let engine_throughput_main () =
  let jobs_list, sweep =
    match jobs_sweep_arg with
    | Some levels -> (levels, true)
    | None -> ([ 1; jobs_arg ], false)
  in
  engine_throughput ~jobs_list ~repeats:repeats_arg ~sweep ~out:out_arg
    ?ledger:ledger_arg ()

let () =
  print_endline "Yashme reproduction benchmark harness";
  if throughput_only then engine_throughput_main ()
  else begin
    print_endline
      "(shapes, not absolute numbers, are the target; see EXPERIMENTS.md)";
    figure1 ();
    table1 ();
    table2a ();
    table2b ();
    let t3 = table3 () in
    let t4 = table4 () in
    table5 ();
    engine_throughput_main ();
    ablations ();
    bechamel_suite ();
    section "Summary";
    Printf.printf "distinct real persistency races found: %d (paper: 24)\n"
      (t3 + t4)
  end
