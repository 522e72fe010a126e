(* The traced run: per-layer numbers, timed from the benchmark's own
   code around calls into each layer's public functions, plus the
   existing Observe.Metrics counters.  Nothing inside the program is
   instrumented for it.

   Untraced and counter-enabled passes alternate for the time budget.
   The first counter-enabled pass keeps its scenarios, and each is
   replayed through the chain Engine.run_scenario runs — Crashstate.copy,
   then Engine.run_phase for pre-crash, recovery and second recovery with
   the scenario's own plans, seeds and exec ids — once with a detector
   and once without.  The difference is the detector's cost; the rest is
   the runtime's.  A replay must reproduce its scenario's ops count and
   race list exactly, or the run fails.

   The pass and its replay run seconds apart, so every timing here is
   scaled with the reference kernel like the untraced run's; otherwise a
   change in machine speed between the two would read as an unexplained
   (or over-explained) share of the pass. *)

module Engine = Pm_harness.Engine
module Scenario = Pm_harness.Scenario
module Report = Pm_harness.Report
module Executor = Pm_runtime.Executor
module Metrics = Observe.Metrics

let now = Unix.gettimeofday

(* Seconds of [f ()], scaled with the kernel. *)
let scaled kernel f =
  let (), wall, scale = Reference.timed kernel f in
  wall *. scale

(* ------------------------------------------------------------------ *)
(* Replay decomposition                                                 *)

type chain = { pre_s : float; post_s : float; words : float; ops : int }

let replay_chain ?detector (s : Scenario.t) inherited =
  let opts = s.Scenario.options in
  let w0 = Workload.local_words () and t0 = now () in
  let pre =
    Engine.run_phase ?detector ?inherited ~options:opts ~plan:s.Scenario.plan
      ~seed:opts.Scenario.seed ~exec_id:Engine.pre_exec s.Scenario.pre
  in
  let t1 = now () in
  let ops = ref pre.Executor.ops in
  (if Engine.crash_fired ~plan:s.Scenario.plan pre then
     let r1 =
       Engine.run_phase ?detector ~options:opts ~inherited:pre.Executor.state
         ~plan:s.Scenario.post_plan ~seed:(opts.Scenario.seed + 1) ~exec_id:Engine.post_exec
         s.Scenario.post
     in
     ops := !ops + r1.Executor.ops;
     match s.Scenario.post_plan with
     | Executor.Run_to_end -> ()
     | _ ->
         if Engine.crash_fired ~plan:s.Scenario.post_plan r1 then
           let r2 =
             Engine.run_recovery ?detector ~options:opts ~inherited:r1.Executor.state
               ~seed:(opts.Scenario.seed + 2) ~exec_id:(Engine.post_exec + 1) s.Scenario.post
           in
           ops := !ops + r2.Executor.ops);
  let t2 = now () in
  { pre_s = t1 -. t0; post_s = t2 -. t1; words = Workload.local_words () -. w0; ops = !ops }

type replay = {
  mutable n : int;
  mutable copy_s : float;
  mutable copy_bytes : float;
  mutable copy_words : float;
  mutable on_s : float;  (* chain with detector *)
  mutable off_pre_s : float;
  mutable off_post_s : float;
  mutable on_words : float;
  mutable off_words : float;
  mutable ops : int;
  mutable mismatches : string list;
}

let hydrate acc (s : Scenario.t) =
  match s.Scenario.setup with
  | Scenario.No_setup -> None
  | Scenario.Snapshot cs ->
      let w0 = Workload.local_words () and t0 = now () in
      let copy = Px86.Crashstate.copy cs in
      acc.copy_s <- acc.copy_s +. (now () -. t0);
      acc.copy_words <- acc.copy_words +. (Workload.local_words () -. w0);
      acc.copy_bytes <- acc.copy_bytes +. float (Px86.Crashstate.copy_cost cs);
      Some copy
  | Scenario.Run_setup _ -> failwith "replay: per-scenario setup runs are not decomposed"

let replay_one acc (k : Workload.kept) =
  match k.result with
  | Engine.Faulted _ -> acc.mismatches <- (k.check ^ ": faulted scenario") :: acc.mismatches
  | Engine.Completed c ->
      let s = k.scenario and o = k.scenario.Scenario.options in
      let detector =
        Yashme.Detector.create ~mode:o.Scenario.mode ~eadr:o.Scenario.eadr
          ~coherence:o.Scenario.coherence ()
      in
      let on = replay_chain ~detector s (hydrate acc s) in
      let off = replay_chain s (hydrate acc s) in
      acc.n <- acc.n + 1;
      acc.on_s <- acc.on_s +. on.pre_s +. on.post_s;
      acc.off_pre_s <- acc.off_pre_s +. off.pre_s;
      acc.off_post_s <- acc.off_post_s +. off.post_s;
      acc.on_words <- acc.on_words +. on.words;
      acc.off_words <- acc.off_words +. off.words;
      acc.ops <- acc.ops + on.ops;
      if on.ops <> c.Engine.ops || off.ops <> c.Engine.ops then
        acc.mismatches <-
          Printf.sprintf "%s %s: replay ran %d/%d ops, scenario %d" k.check c.Engine.label on.ops
            off.ops c.Engine.ops
          :: acc.mismatches;
      if Yashme.Detector.races detector <> c.Engine.races then
        acc.mismatches <-
          Printf.sprintf "%s %s: replay races differ" k.check c.Engine.label :: acc.mismatches

(* Replays are scaled in chunks of 64 scenarios, a few tens of
   milliseconds each. *)
let replay ?kernel (kept : Workload.kept list) =
  let acc =
    {
      n = 0;
      copy_s = 0.;
      copy_bytes = 0.;
      copy_words = 0.;
      on_s = 0.;
      off_pre_s = 0.;
      off_post_s = 0.;
      on_words = 0.;
      off_words = 0.;
      ops = 0;
      mismatches = [];
    }
  in
  let mark () = (acc.copy_s, acc.on_s, acc.off_pre_s, acc.off_post_s) in
  let scale_since (copy0, on0, pre0, post0) =
    let scale = Reference.rescale kernel in
    let fix v0 v = v0 +. (scale *. (v -. v0)) in
    acc.copy_s <- fix copy0 acc.copy_s;
    acc.on_s <- fix on0 acc.on_s;
    acc.off_pre_s <- fix pre0 acc.off_pre_s;
    acc.off_post_s <- fix post0 acc.off_post_s
  in
  let start = ref (mark ()) in
  List.iteri
    (fun i k ->
      replay_one acc k;
      if (i + 1) mod 64 = 0 then begin
        scale_since !start;
        start := mark ()
      end)
    kept;
  scale_since !start;
  (* Both replays copy the setup image; charge one copy per scenario. *)
  acc.copy_s <- acc.copy_s /. 2.;
  acc.copy_bytes <- acc.copy_bytes /. 2.;
  acc.copy_words <- acc.copy_words /. 2.;
  acc

(* The kept scenarios grouped by check, in check-name order. *)
let by_check (kept : Workload.kept list) =
  List.sort_uniq String.compare (List.map (fun (k : Workload.kept) -> k.check) kept)
  |> List.map (fun check -> (check, List.filter (fun (k : Workload.kept) -> k.check = check) kept))

(* The report layer of each check, recomputed from the kept results:
   merge the races, deduplicate them and render the report.  Soak
   builds no report; there each stream's results are reported as if it
   did, which times the layer on soak races but is no part of a soak
   pass. *)
let report_s ?kernel kept =
  let groups =
    List.map
      (fun (check, ks) ->
        ( check,
          List.filter_map
            (fun (k : Workload.kept) -> if k.full then Some k.result else None)
            ks ))
      (by_check kept)
  in
  let no_stats =
    {
      Engine.jobs = 1;
      scenarios = 0;
      completed = 0;
      faulted = 0;
      diverged = 0;
      cancelled = 0;
      executions = 0;
      ops = 0;
      cpu_s = 0.;
      elapsed_s = 0.;
    }
  in
  let time =
    scaled kernel @@ fun () ->
    List.iter
      (fun (check, results) ->
        let run = { Engine.results; stats = no_stats } in
        Report.dedup ~program:check ~executions:(List.length results)
          ~faults:(Engine.faults run) (Engine.races run)
        |> Report.to_string |> Sys.opaque_identity |> ignore)
      groups
  in
  (time, List.length groups)

(* The corpus layer of check workloads: witness extraction from each
   check's results ([Witness.of_pairs]), what [--corpus-out] adds to a
   check.  Returns seconds, checks, witnesses, observations walked and
   duplicates folded. *)
let extract_s ?kernel kept =
  let groups =
    List.map
      (fun (check, ks) ->
        ( check,
          List.map
            (fun (k : Workload.kept) ->
              ( k.scenario,
                k.result,
                if k.full then Pm_harness.Runner.Full else Pm_harness.Runner.Faults_only ))
            ks ))
      (by_check kept)
  in
  let witnesses = ref 0 and raw = ref 0 and dups = ref 0 in
  let time =
    scaled kernel @@ fun () ->
    List.iter
      (fun (check, pairs) ->
        let x = Pm_corpus.Witness.of_pairs ~program:check pairs in
        witnesses := !witnesses + List.length x.Pm_corpus.Witness.witnesses;
        raw := !raw + x.Pm_corpus.Witness.raw;
        dups := !dups + x.Pm_corpus.Witness.duplicates)
      groups
  in
  (time, List.length groups, !witnesses, !raw, !dups)

(* ------------------------------------------------------------------ *)
(* Primitives                                                           *)

(* Median nanoseconds per iteration of [body] over [reps] timed loops. *)
let ns_per ?kernel ~iters ~reps body =
  Stats.median
    (List.init reps (fun _ ->
         scaled kernel (fun () ->
             for i = 1 to iters do
               body i
             done)
         *. 1e9 /. float iters))

let memimage_rw8 ?kernel ~iters ~reps () =
  let img = Px86.Memimage.create () in
  ns_per ?kernel ~iters ~reps (fun i ->
      let addr = (i land 1023) * 8 in
      Px86.Memimage.write img ~addr ~size:8 ~value:(Int64.of_int i);
      ignore (Sys.opaque_identity (Px86.Memimage.read img ~addr ~size:8)))

(* Push one store and evict the oldest entry, on a buffer held at eight
   entries. *)
let sb_push_evict ?kernel ~iters ~reps () =
  let store i =
    Px86.Store_buffer.Store
      {
        Px86.Event.seq = -1;
        tid = 0;
        lclk = i;
        cv = Yashme_util.Clockvec.empty;
        addr = (i land 63) * 8;
        size = 8;
        value = Int64.of_int i;
        access = Px86.Access.Plain;
        nt = false;
        label = None;
      }
  in
  let sb = Px86.Store_buffer.create () in
  for i = 1 to 8 do
    Px86.Store_buffer.push sb (store i)
  done;
  ns_per ?kernel ~iters ~reps (fun i ->
      Px86.Store_buffer.push sb (store i);
      match Px86.Store_buffer.evictable sb with
      | j :: _ -> ignore (Sys.opaque_identity (Px86.Store_buffer.take sb j))
      | [] -> ())

(* One executor effect round trip: a Pmem operation that touches no
   memory, performed and resumed. *)
let effect_round_trip ?kernel ~iters ~reps () =
  Stats.median
    (List.init reps (fun _ ->
         scaled kernel (fun () ->
             ignore
               (Executor.run ~exec_id:Engine.setup_exec (fun () ->
                    for _ = 1 to iters do
                      ignore (Sys.opaque_identity (Pm_runtime.Pmem.my_tid ()))
                    done)))
         *. 1e9 /. float iters))

let cv4 a = Yashme_util.Clockvec.of_list (List.mapi (fun tid c -> (tid, c)) a)

let cv_join ?kernel ~iters ~reps () =
  let a = cv4 [ 3; 5; 1; 7 ] and b = cv4 [ 4; 2; 6; 7 ] in
  ns_per ?kernel ~iters ~reps (fun _ -> ignore (Sys.opaque_identity (Yashme_util.Clockvec.join a b)))

let cv_leq ?kernel ~iters ~reps () =
  let a = cv4 [ 3; 5; 1; 7 ] and b = cv4 [ 4; 5; 6; 7 ] in
  ns_per ?kernel ~iters ~reps (fun _ -> ignore (Sys.opaque_identity (Yashme_util.Clockvec.leq a b)))

(* ------------------------------------------------------------------ *)
(* The traced run                                                       *)

let counter_total diff pred =
  List.fold_left (fun acc (name, v) -> if pred name then acc + v else acc) 0 diff

let run (w : Spec.workload) ~seed ~seconds ~smoke =
  let kernel = Reference.create ~jobs:w.jobs in
  let setup = Measure.setup_times ~kernel w ~seed ~smoke ~reps:(if smoke then 1 else 5) in
  let warm_up =
    if smoke then [] else [ Workload.run_pass ~kernel w ~seed ~index:0 ~smoke ~keep:false ]
  in
  (* The first counter-enabled pass keeps its scenarios; every other
     pass record keeps only what the correctness checks read, so that
     the replay below runs on a heap no bigger than the pass had. *)
  let kept = ref [] in
  let strip (p : Workload.pass) = { p with walls = []; kept = [] } in
  let pairs =
    Measure.timed_passes ~seconds ~smoke ~first:1 (fun index ->
        let g0 = Gc.quick_stat () in
        let plain = Workload.run_pass ~kernel w ~seed ~index ~smoke ~keep:false in
        let g1 = Gc.quick_stat () in
        let busy = List.fold_left ( +. ) 0. plain.walls /. (float w.jobs *. plain.wall_s) in
        Metrics.enable ();
        let before = Metrics.snapshot () in
        let traced = Workload.run_pass ~kernel w ~seed ~index ~smoke ~keep:(index = 1) in
        let diff = Metrics.diff before (Metrics.snapshot ()) in
        Metrics.disable ();
        if index = 1 then kept := traced.kept;
        (strip plain, busy, (g0, g1), strip traced, diff))
  in
  let plain = List.map (fun (p, _, _, _, _) -> p) pairs in
  let traced = List.map (fun (_, _, _, t, _) -> t) pairs in
  let _, _, _, first, diff = List.hd pairs in
  let completed =
    List.filter_map
      (fun (k : Workload.kept) ->
        match k.result with Engine.Completed c -> Some c.Engine.chain_crashed | Engine.Faulted _ -> None)
      !kept
  in
  let report_s, checks = report_s ~kernel !kept in
  (* seconds, batches, witnesses, observations, duplicates *)
  let corpus_s, batches, witnesses, raw, dups =
    match w.kind with
    | Spec.Soak _ ->
        (first.absorb_s, first.rounds, first.witnesses, first.witness_raw, first.witness_duplicates)
    | Spec.Model_check | Spec.Recovery -> extract_s ~kernel !kept
  in
  (* What the pass itself did after its engine batches. *)
  let post_s = match w.kind with Spec.Soak _ -> corpus_s | Spec.Model_check | Spec.Recovery -> report_s in
  (* Determinism at jobs > 1: the same pass at jobs=1 must give the
     same scenario signatures. *)
  let jobs_problems =
    if w.jobs = 1 then []
    else
      let serial = Workload.run_pass ~jobs:1 w ~seed ~index:1 ~smoke ~keep:true in
      let sigs = List.map (fun (k : Workload.kept) -> Engine.signature k.result) in
      if sigs serial.kept = sigs !kept then []
      else [ Printf.sprintf "jobs=%d scenario signatures differ from jobs=1" w.jobs ]
  in
  let r =
    replay ~kernel
      (let k = !kept in
       kept := [];
       k)
  in
  let iters = if smoke then 10_000 else 1_000_000 and reps = if smoke then 1 else 5 in
  let noop_us =
    Stats.median
      (List.init
         (if smoke then 3 else 50)
         (fun _ ->
           scaled (Some kernel) (fun () -> ignore (Workload.noop_batch ~jobs:w.jobs)) *. 1e6))
  in
  let n = float (max 1 r.n) in
  let per_scn x = x /. n and us x = x *. 1e6 in
  let count name = float (counter_total diff (String.equal name)) /. n in
  let counted suffix =
    float
      (counter_total diff (fun k ->
           String.starts_with ~prefix:"executor/" k && String.ends_with ~suffix k))
    /. n
  in
  let med f xs = Stats.median (List.map f xs) in
  let plain_wall = med (fun (p : Workload.pass) -> p.wall_s) plain in
  let probe_s = Stats.median setup in
  let off_s = r.off_pre_s +. r.off_post_s in
  let layer_s = r.copy_s +. r.on_s +. post_s +. probe_s in
  let values =
    [
      ("engine.busy_frac", med (fun (_, busy, _, _, _) -> busy) pairs);
      ("engine.noop_batch_us", noop_us);
      ( "engine.chain_crashed_frac",
        float (List.length (List.filter Fun.id completed)) /. float (max 1 (List.length completed))
      );
      ("runner.probe_ms", probe_s *. 1e3 /. float checks);
      ("report.us_per_check", us report_s /. float checks);
      ("corpus.us_per_batch", us corpus_s /. float (max 1 batches));
      ("corpus.witnesses", float witnesses);
      ("corpus.dedup_rate", float dups /. float (max 1 raw));
      ("px86.copy_us", us (per_scn r.copy_s));
      ("px86.copy_bytes", per_scn r.copy_bytes);
      ("px86.copy_alloc_words", per_scn r.copy_words);
      ("px86.sb_evictions", count "px86/sb_evictions");
      ("px86.fb_applies", count "px86/fb_applies");
      ("px86.crashes", count "px86/crash_materializations");
      ("px86.memimage_rw8_ns", memimage_rw8 ~kernel ~iters ~reps ());
      ("px86.sb_push_evict_ns", sb_push_evict ~kernel ~iters ~reps ());
      ("runtime.pre_us", us (per_scn r.off_pre_s));
      ("runtime.post_us", us (per_scn r.off_post_s));
      ("runtime.ns_per_op", off_s *. 1e9 /. float (max 1 r.ops));
      ("runtime.alloc_words_per_op", r.off_words /. float (max 1 r.ops));
      ("runtime.ops", float r.ops /. n);
      ("runtime.loads", counted "/loads");
      ("runtime.stores", counted "/stores");
      ("runtime.effect_ns", effect_round_trip ~kernel ~iters ~reps ());
      ("core.detector_us", us (per_scn (r.on_s -. off_s)));
      ("core.alloc_words", per_scn (r.on_words -. r.off_words));
      ("core.detector_share", (r.on_s -. off_s) /. r.on_s);
      ("core.prefix_expansions", count "detector/prefix_expansions");
      ("core.cv_comparisons", count "detector/cv_comparisons");
      ("core.candidate_checks", count "detector/candidate_checks");
      ("core.races_raised", count "detector/races_raised");
      ("util.cv_join_ns", cv_join ~kernel ~iters ~reps ());
      ("util.cv_leq_ns", cv_leq ~kernel ~iters ~reps ());
      ( "gc.minor_collections",
        med (fun (_, _, (g0, g1), _, _) -> float (g1.Gc.minor_collections - g0.Gc.minor_collections)) pairs
      );
      ( "gc.major_words",
        med
          (fun ((p : Workload.pass), _, (g0, g1), _, _) ->
            (g1.Gc.major_words -. g0.Gc.major_words) /. float p.scenarios)
          pairs );
      ( "trace.overhead_frac",
        (med (fun (p : Workload.pass) -> p.wall_s) traced /. plain_wall) -. 1. );
      ("trace.explained_frac", layer_s /. (float w.jobs *. first.wall_s));
    ]
  in
  let readings =
    List.map
      (fun (m : Spec.layer_metric) ->
        Measure.single ~name:m.l_name ~unit:m.l_unit (List.assoc m.l_name values))
      Spec.per_layer
  in
  let all = plain @ traced in
  {
    Measure.readings;
    problems =
      Workload.problems w ~seed ~smoke (warm_up @ all) @ List.rev r.mismatches @ jobs_problems;
    attempted = List.fold_left (fun acc (p : Workload.pass) -> acc + p.scenarios) 0 all;
    failed = List.fold_left (fun acc (p : Workload.pass) -> acc + p.failed) 0 all;
    passes = List.length all;
    min_pass_scenarios =
      List.fold_left (fun acc (p : Workload.pass) -> min acc p.scenarios) max_int all;
    scale = 1.;
  }
