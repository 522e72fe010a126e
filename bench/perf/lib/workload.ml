(* One pass of a workload: the fixed unit of work the benchmark repeats.
   A pass is a closed loop with one driver — the next check starts only
   after the previous one returned. *)

module Engine = Pm_harness.Engine
module Runner = Pm_harness.Runner
module Scenario = Pm_harness.Scenario
module Soak = Pm_harness.Soak
module Report = Pm_harness.Report
module Registry = Pm_benchmarks.Registry
module Soak_store = Pm_corpus.Soak_store

let now = Unix.gettimeofday

(* Every word the program allocated, all domains included: minor
   allocations plus those made directly in the major heap (large
   [Bytes.copy]s).  The counters of the running domain are flushed at
   its minor collections, so a reading trails by at most one minor heap;
   over a whole run that is below 0.1 %. *)
let run_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The same, exact, for the calling domain only. *)
let local_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* One scenario of a pass, kept for the traced run's replay. *)
type kept = {
  check : string;  (* the program, or the soak stream *)
  scenario : Scenario.t;
  result : Engine.scenario_result;
  full : bool;  (* the report (or corpus) used this scenario's races *)
}

(* [wall_s] and [walls] are scaled per check by the reference kernel
   when the pass was given one (see Reference), raw otherwise. *)
type pass = {
  variant : int;  (* passes of one variant do identical work *)
  wall_s : float;  (* the checks' time, kernel readings excluded *)
  raw_wall_s : float;
  walls : float list;  (* per-scenario wall time, seconds *)
  scenarios : int;
  failed : int;  (* faulted + budget-diverged scenarios *)
  digest : string;  (* identical on every pass of one variant *)
  counts : Spec.pin list;  (* what each check produced *)
  soak_raw_races : int;
  witnesses : int;
  witness_raw : int;
  witness_duplicates : int;
  rounds : int;
  absorb_s : float;  (* Soak_store.absorb time, scaled like [wall_s] *)
  kept : kept list;  (* empty unless the pass was asked to keep them *)
}

let result_wall = function
  | Engine.Completed c -> c.Engine.wall_s
  | Engine.Faulted f -> f.Engine.f_wall_s

let result_failed = function
  | Engine.Completed c -> c.Engine.diverged
  | Engine.Faulted _ -> true

let checks (w : Spec.workload) ~smoke =
  let names = List.map (fun (p : Spec.pin) -> p.program) w.pins in
  if smoke then List.filter (fun n -> List.mem n w.smoke) names else names

(* The seed reorders the checks of a pass; the order changes no work. *)
let permute ~seed ~pass xs =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let soak_config (w : Spec.workload) ~seed ~ops =
  let mixes =
    match w.kind with Spec.Soak ms -> ms | Spec.Model_check | Spec.Recovery -> []
  in
  {
    (Soak.default_config ~streams:Registry.soak_streams) with
    Soak.sk_buckets =
      List.filter
        (fun (b : Soak.bucket) -> List.mem b.Soak.b_mix.Soak.mix_label mixes)
        Soak.default_buckets;
    sk_options = { Scenario.default_options with Scenario.seed };
    sk_jobs = w.jobs;
    sk_max_ops = Some ops;
  }

(* A soak pass streams [soak_runs] independent client streams, each its
   own [Soak.run] with a seed derived from the benchmark seed, and
   passes cycle through [soak_variants] sets of streams.  One stream's
   calibration draws and key sequence shift its work per scenario, and
   its tail, by several percent; a run's 32 streams average that out.
   Passes of one variant do the same work. *)
let soak_runs = 8
let soak_variants = 4
let variant (w : Spec.workload) ~index =
  match w.kind with Spec.Soak _ -> index mod soak_variants | Spec.Model_check | Spec.Recovery -> 0

let soak_seeds seed ~variant =
  List.init soak_runs (fun j -> ((((seed * soak_variants) + variant) * soak_runs) + j))

let soak_ops ~smoke = (if smoke then Spec.smoke_soak_pass_ops else Spec.soak_pass_ops) / soak_runs

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

(* One engine batch of [jobs] scenarios that do nothing: the cost of
   spawning, feeding and joining the worker domains. *)
let noop_batch ~jobs =
  Engine.run ~jobs
    (List.init jobs (fun i ->
         Scenario.make ~label:(Printf.sprintf "noop-%d" i) ~setup:Scenario.No_setup
           ~pre:ignore ~post:ignore ~plan:Pm_runtime.Executor.Run_to_end
           ~options:Scenario.default_options ()))

(* The work a pass does before its first scenario: materialize each
   program's setup image and count its flush points; for soak, a
   [Soak.run] per stream that materializes and calibrates every combo,
   then stops.  Two-domain workloads also pay one no-op batch. *)
let setup_step (w : Spec.workload) ~seed ~smoke =
  (match w.kind with
  | Spec.Model_check | Spec.Recovery ->
      List.iter
        (fun name ->
          let p = Registry.find name in
          ignore (Engine.materialize_setup ~options:Scenario.default_options p);
          ignore (Runner.count_flush_points p))
        (checks w ~smoke)
  | Spec.Soak _ ->
      List.iter
        (fun seed ->
          let r = Soak.run (soak_config w ~seed ~ops:0) in
          if not r.Soak.r_ok then failwith "soak set-up did not stop by budget")
        (soak_seeds seed ~variant:0));
  if w.jobs > 1 then ignore (noop_batch ~jobs:w.jobs)

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)

(* What a pass keeps of one check.  The outcome itself is dropped as
   soon as the check returns, as the CLI drops it after printing, so the
   benchmark's own live data does not inflate the peak resident set. *)
type check_run = {
  c_wall : float;
  c_scale : float;
  c_walls : float list;  (* scaled *)
  c_failed : int;
  c_report : string;
  c_pin : Spec.pin;
  c_kept : kept list;
}

let check_pass ?kernel (w : Spec.workload) ~jobs ~seed ~index ~smoke ~keep =
  let names = checks w ~smoke in
  let runs =
    List.map
      (fun name ->
        let p = Registry.find name in
        let o, wall, scale =
          Reference.timed kernel (fun () ->
              match w.kind with
              | Spec.Model_check -> Runner.model_check_outcome ~jobs p
              | Spec.Recovery -> Runner.model_check_recovery_outcome ~jobs p
              | Spec.Soak _ -> invalid_arg "check_pass: a soak workload")
        in
        let results = List.map (fun (_, r, _) -> r) o.Runner.o_pairs in
        ( name,
          {
            c_wall = wall;
            c_scale = scale;
            c_walls = List.map (fun r -> result_wall r *. scale) results;
            c_failed = List.length (List.filter result_failed results);
            c_report = Report.to_string o.Runner.o_report;
            c_pin =
              {
                Spec.program = name;
                scenarios = List.length results;
                races = List.length (Report.real o.Runner.o_report);
              };
            c_kept =
              (if not keep then []
               else
                 List.map
                   (fun (scenario, result, ev) ->
                     { check = name; scenario; result; full = ev = Runner.Full })
                   o.Runner.o_pairs);
          } ))
      (permute ~seed ~pass:index names)
  in
  let ordered = List.map (fun n -> List.assoc n runs) names in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0. ordered in
  let walls = List.concat_map (fun c -> c.c_walls) ordered in
  {
    variant = 0;
    wall_s = sum (fun c -> c.c_wall *. c.c_scale);
    raw_wall_s = sum (fun c -> c.c_wall);
    walls;
    scenarios = List.length walls;
    failed = List.fold_left (fun acc c -> acc + c.c_failed) 0 ordered;
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map (fun c -> c.c_pin.Spec.program ^ "\n" ^ c.c_report) ordered)));
    counts = List.map (fun c -> c.c_pin) ordered;
    soak_raw_races = 0;
    witnesses = 0;
    witness_raw = 0;
    witness_duplicates = 0;
    rounds = 0;
    absorb_s = 0.;
    kept = List.concat_map (fun c -> c.c_kept) ordered;
  }

(* A soak pass runs its streams one after another under a client-op
   budget each, absorbing every round into one witness sink as the CLI
   does. *)
let soak_pass ?kernel (w : Spec.workload) ~seed ~index ~smoke ~keep =
  let sink = Soak_store.sink () in
  let walls = ref [] and failed = ref 0 and kept = ref [] in
  let absorb_s = ref 0. and rounds = ref 0 in
  (* per stream, scaled when the stream ends *)
  let stream_absorb_s = ref 0. and stream = ref "" in
  let on_batch triples =
    List.iter
      (fun (_, scenario, result) ->
        walls := result_wall result :: !walls;
        if result_failed result then incr failed;
        if keep then
          kept := { check = !stream; scenario; result; full = true } :: !kept)
      triples;
    let a0 = now () in
    Soak_store.absorb sink triples;
    stream_absorb_s := !stream_absorb_s +. (now () -. a0);
    incr rounds
  in
  let streams =
    List.map
      (fun seed ->
        walls := [];
        stream_absorb_s := 0.;
        if keep then stream := Printf.sprintf "stream %d" seed;
        let r, wall, scale =
          Reference.timed kernel (fun () ->
              Soak.run ~on_batch (soak_config w ~seed ~ops:(soak_ops ~smoke)))
        in
        if not r.Soak.r_ok then incr failed;
        absorb_s := !absorb_s +. (!stream_absorb_s *. scale);
        (r.Soak.r_snapshot, wall, scale, List.map (fun x -> x *. scale) !walls))
      (soak_seeds seed ~variant:(variant w ~index))
  in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. streams in
  let snaps = List.map (fun (snap, _, _, _) -> snap) streams in
  let walls = List.concat_map (fun (_, _, _, ws) -> ws) streams in
  let ws = Soak_store.witnesses sink in
  {
    variant = variant w ~index;
    wall_s = sum (fun (_, wall, scale, _) -> wall *. scale);
    raw_wall_s = sum (fun (_, wall, _, _) -> wall);
    walls;
    scenarios = List.length walls;
    failed = !failed;
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map
                 (fun s ->
                   Printf.sprintf "%d %d %d" s.Soak.snap_scenarios s.Soak.snap_ops
                     s.Soak.snap_races)
                 snaps
              @ List.map Pm_corpus.Witness.identity ws)));
    counts = [];
    soak_raw_races = List.fold_left (fun acc s -> acc + s.Soak.snap_races) 0 snaps;
    witnesses = List.length ws;
    witness_raw = Soak_store.raw sink;
    witness_duplicates = Soak_store.duplicates sink;
    rounds = !rounds;
    absorb_s = !absorb_s;
    kept = List.rev !kept;
  }

let run_pass ?kernel ?jobs (w : Spec.workload) ~seed ~index ~smoke ~keep =
  match w.kind with
  | Spec.Model_check | Spec.Recovery ->
      check_pass ?kernel w ~jobs:(Option.value jobs ~default:w.jobs) ~seed ~index ~smoke ~keep
  | Spec.Soak _ -> soak_pass ?kernel w ~seed ~index ~smoke ~keep

(* ------------------------------------------------------------------ *)
(* Correctness                                                          *)

let show_pins pins =
  String.concat ", "
    (List.map
       (fun (c : Spec.pin) -> Printf.sprintf "%s %d scenarios %d races" c.program c.scenarios c.races)
       pins)

(* Everything the passes of one run must satisfy: no failed scenario,
   one digest across the passes of each variant, and the pinned
   per-check scenario and race counts (the soak pins hold for a full
   pass of variant 0 at seed 42). *)
let problems (w : Spec.workload) ~seed ~smoke passes =
  let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes in
  let digests = List.sort_uniq compare (List.map (fun p -> (p.variant, p.digest)) passes) in
  let variants = List.sort_uniq compare (List.map fst digests) in
  let expected =
    List.filter (fun (pin : Spec.pin) -> List.mem pin.program (checks w ~smoke)) w.pins
  in
  List.concat
    [
      (if failed > 0 then fail "%d scenario(s) faulted or diverged" failed else []);
      (if List.length digests > List.length variants then
         fail "passes of one variant disagree: %d digests for %d variant(s)"
           (List.length digests) (List.length variants)
       else []);
      List.concat_map
        (fun p ->
          if p.counts = expected then []
          else fail "checks gave [%s], pinned [%s]" (show_pins p.counts) (show_pins expected))
        passes;
      (match (w.soak_seed42, List.find_opt (fun p -> p.variant = 0) passes) with
      | Some (digest, raw), Some p when seed = 42 && not smoke ->
          if p.digest = digest && p.soak_raw_races = raw then []
          else
            fail "soak seed 42: digest %s / %d raw races, pinned %s / %d" p.digest
              p.soak_raw_races digest raw
      | _ -> []);
    ]
  |> List.sort_uniq String.compare
