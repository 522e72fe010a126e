(* Soak driver: crash testing as a long-running service.

   Structure: (stream x bucket) combos; one scenario per active combo
   per round; one Engine.run batch per round.  All randomness derives
   from pure functions of (base seed, round, combo label), so the
   scenario stream is reproducible from the seed alone — including
   after a checkpoint/resume, which only has to remember the next
   round index and the per-combo fault state, never RNG internals. *)

module Executor = Pm_runtime.Executor
module Rng = Yashme_util.Rng

(* ------------------------------------------------------------------ *)
(* Op streams                                                           *)

type op_kind = Read | Write | Delete | Rmw

type op_stream = {
  os_name : string;
  os_keyspace : int;
  os_setup : (unit -> unit) option;
  os_connect : unit -> op_kind -> key:int -> payload:int -> unit;
  os_audit : unit -> unit;
  os_observe : (unit -> (string * string) list) option;
}

(* ------------------------------------------------------------------ *)
(* Op-mix buckets                                                       *)

type mix = {
  mix_label : string;
  w_read : int;
  w_write : int;
  w_delete : int;
  w_rmw : int;
}

type dist = Uniform | Hotspot

let dist_label = function Uniform -> "uniform" | Hotspot -> "hotspot"
let dist_of_label = function
  | "uniform" -> Some Uniform
  | "hotspot" -> Some Hotspot
  | _ -> None

type bucket = { b_mix : mix; b_dist : dist }

let bucket_label b = b.b_mix.mix_label ^ ":" ^ dist_label b.b_dist

let default_mixes =
  [
    { mix_label = "read-heavy"; w_read = 8; w_write = 2; w_delete = 0; w_rmw = 0 };
    { mix_label = "write-heavy"; w_read = 2; w_write = 6; w_delete = 1; w_rmw = 1 };
    { mix_label = "churn"; w_read = 1; w_write = 4; w_delete = 4; w_rmw = 1 };
    { mix_label = "rmw-heavy"; w_read = 2; w_write = 3; w_delete = 0; w_rmw = 5 };
  ]

let default_buckets =
  List.concat_map
    (fun m -> [ { b_mix = m; b_dist = Uniform }; { b_mix = m; b_dist = Hotspot } ])
    default_mixes

let draw_kind rng m =
  let total = m.w_read + m.w_write + m.w_delete + m.w_rmw in
  assert (total > 0);
  let r = Rng.int rng total in
  if r < m.w_read then Read
  else if r < m.w_read + m.w_write then Write
  else if r < m.w_read + m.w_write + m.w_delete then Delete
  else Rmw

let draw_key rng d keyspace =
  match d with
  | Uniform -> 1 + Rng.int rng keyspace
  | Hotspot ->
      let hot = max 1 (keyspace / 5) in
      if Rng.int rng 10 < 8 then 1 + Rng.int rng hot
      else 1 + Rng.int rng keyspace

(* ------------------------------------------------------------------ *)
(* Soak programs (replayable by encoded name)                           *)

let program_name ~stream ~bucket ~ops ~seed =
  Printf.sprintf "soak:%s:%s:%s:%d:%d" stream bucket.b_mix.mix_label
    (dist_label bucket.b_dist) ops seed

(* [run] labels a round's scenario with its combo, the program name
   without the round's ops and seed. *)
let scenario_label name =
  match String.split_on_char ':' name with
  | [ "soak"; stream; mix; dist; _; _ ] ->
      String.concat ":" [ "soak"; stream; mix; dist ]
  | _ -> name

let pre_of ~stream ~bucket ~ops ~seed () =
  let rng = Rng.create seed in
  let apply = stream.os_connect () in
  for _ = 1 to ops do
    let kind = draw_kind rng bucket.b_mix in
    let key = draw_key rng bucket.b_dist stream.os_keyspace in
    let payload = Rng.int rng 1000 in
    apply kind ~key ~payload
  done

let program ~stream ~bucket ~ops ~seed =
  Program.make
    ?setup:stream.os_setup
    ?observe:stream.os_observe
    ~name:(program_name ~stream:stream.os_name ~bucket ~ops ~seed)
    ~pre:(pre_of ~stream ~bucket ~ops ~seed)
    ~post:(fun () -> stream.os_audit ())
    ()

let find_program ~streams name =
  match String.split_on_char ':' name with
  | [ "soak"; stream_name; mix_label; dist_name; ops_s; seed_s ] -> (
      match
        ( List.find_opt (fun s -> s.os_name = stream_name) streams,
          List.find_opt (fun m -> m.mix_label = mix_label) default_mixes,
          dist_of_label dist_name,
          int_of_string_opt ops_s,
          int_of_string_opt seed_s )
      with
      | Some stream, Some mix, Some dist, Some ops, Some seed
        when ops > 0 ->
          Some
            (program ~stream
               ~bucket:{ b_mix = mix; b_dist = dist }
               ~ops ~seed)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Configuration and state                                              *)

type config = {
  sk_streams : op_stream list;
  sk_buckets : bucket list;
  sk_options : Scenario.options;
  sk_jobs : int;
  sk_ops_per_exec : int;
  sk_fault_budget : int;
  sk_max_ops : int option;
  sk_wall_s : float option;
  sk_checkpoint_every : int;
  sk_oracle : bool;
}

let default_config ~streams =
  {
    sk_streams = streams;
    sk_buckets = default_buckets;
    sk_options = Scenario.default_options;
    sk_jobs = 1;
    sk_ops_per_exec = 24;
    sk_fault_budget = 3;
    sk_max_ops = None;
    sk_wall_s = None;
    sk_checkpoint_every = 10;
    sk_oracle = false;
  }

type bucket_state = {
  bs_combo : string;
  bs_faults : int;
  bs_quarantined : bool;
}

type snapshot = {
  snap_next_round : int;
  snap_scenarios : int;
  snap_completed : int;
  snap_faulted : int;
  snap_diverged : int;
  snap_crashed : int;
  snap_executions : int;
  snap_ops : int;
  snap_client_ops : int;
  snap_races : int;
  snap_buckets : bucket_state list;
}

type stop_reason = Op_budget | Wall_budget | Exhausted | Interrupted

let stop_reason_label = function
  | Op_budget -> "op-budget"
  | Wall_budget -> "wall-budget"
  | Exhausted -> "exhausted"
  | Interrupted -> "interrupted"

type result = {
  r_snapshot : snapshot;
  r_reason : stop_reason;
  r_ok : bool;
  r_elapsed_s : float;
}

(* ------------------------------------------------------------------ *)
(* Cancellation                                                         *)

let stop_flag = Atomic.make false
let request_stop () = Atomic.set stop_flag true

(* ------------------------------------------------------------------ *)
(* The driver                                                           *)

type combo = {
  c_stream : op_stream;
  c_bucket : bucket;
  c_label : string;  (* scenario label = coverage bucket; seed-free *)
  c_points : int;  (* calibrated flush-point estimate, >= 1 *)
  mutable c_faults : int;
  mutable c_quarantined : bool;
}

(* Derived seeds: pure functions of (base seed, round, combo label),
   mirroring Runner.program_seed — this is what makes resume re-wind
   the RNG stream without serializing generator state. *)
let iter_seed ~seed ~round ~label = Hashtbl.hash (seed, round, label)

(* The crash plan for one iteration: a uniform draw over the combo's
   estimated flush points plus Crash_at_end.  An index beyond the
   iteration's actual flush points simply never fires (a completed,
   uncrashed scenario) — still a useful execution, so no re-draw. *)
let plan_of ~points ~seed =
  let rng = Rng.create (seed lxor 0x2545F49) in
  let n = Rng.int rng (points + 1) in
  if n >= points then Executor.Crash_at_end else Executor.Crash_before_flush n

(* Flush-point calibration: one probe scenario per combo, from a seed
   independent of the round counter so fresh and resumed runs agree.
   Probe executions are excluded from the totals for the same reason.
   A faulting probe (fault-storm streams) falls back to 1. *)
let calibrate ~options combo ~setup =
  let seed = iter_seed ~seed:options.Scenario.seed ~round:(-1) ~label:combo.c_label in
  let stream = combo.c_stream and bucket = combo.c_bucket in
  let sc =
    Scenario.make ~label:combo.c_label ~setup
      ~pre:(pre_of ~stream ~bucket ~ops:8 ~seed)
      ~post:(fun () -> stream.os_audit ())
      ~plan:Executor.Crash_at_end
      ~options:{ options with Scenario.seed }
      ()
  in
  match Engine.run_scenario sc with
  | Engine.Completed c -> max 1 c.Engine.flush_points
  | Engine.Faulted _ -> 1

(* The running state: a snapshot's round counter and totals, updated in
   place, so a round allocates nothing for them. *)
type totals = {
  mutable next_round : int;
  mutable scenarios : int;
  mutable completed : int;
  mutable faulted : int;
  mutable diverged : int;
  mutable crashed : int;
  mutable executions : int;
  mutable ops : int;
  mutable client_ops : int;
  mutable races : int;
}

let start =
  {
    snap_next_round = 0;
    snap_scenarios = 0;
    snap_completed = 0;
    snap_faulted = 0;
    snap_diverged = 0;
    snap_crashed = 0;
    snap_executions = 0;
    snap_ops = 0;
    snap_client_ops = 0;
    snap_races = 0;
    snap_buckets = [];
  }

let snapshot_of t ~combos =
  {
    snap_next_round = t.next_round;
    snap_scenarios = t.scenarios;
    snap_completed = t.completed;
    snap_faulted = t.faulted;
    snap_diverged = t.diverged;
    snap_crashed = t.crashed;
    snap_executions = t.executions;
    snap_ops = t.ops;
    snap_client_ops = t.client_ops;
    snap_races = t.races;
    snap_buckets =
      List.map
        (fun c ->
          {
            bs_combo = c.c_label;
            bs_faults = c.c_faults;
            bs_quarantined = c.c_quarantined;
          })
        combos;
  }

let run ?resume ?(on_batch = fun _ -> ()) ?(on_checkpoint = fun _ -> ()) cfg =
  if cfg.sk_streams = [] then invalid_arg "Soak.run: no op streams";
  if cfg.sk_buckets = [] then invalid_arg "Soak.run: no buckets";
  Atomic.set stop_flag false;
  let t0 = Unix.gettimeofday () in
  let options = cfg.sk_options in
  (* Setup states are memoized per stream, like the scripted drivers'
     per-program memoization: every scenario of a stream re-hydrates
     the same trusted snapshot. *)
  let setups = Hashtbl.create 8 in
  let setup_of stream =
    match Hashtbl.find_opt setups stream.os_name with
    | Some s -> s
    | None ->
        let p =
          program ~stream
            ~bucket:(List.hd cfg.sk_buckets)
            ~ops:1 ~seed:options.Scenario.seed
        in
        let s = Engine.materialize_setup ~options p in
        Hashtbl.add setups stream.os_name s;
        s
  in
  let combos =
    List.concat_map
      (fun stream ->
        List.map
          (fun bucket ->
            let label =
              Printf.sprintf "soak:%s:%s" stream.os_name (bucket_label bucket)
            in
            let c =
              {
                c_stream = stream;
                c_bucket = bucket;
                c_label = label;
                c_points = 1;
                c_faults = 0;
                c_quarantined = false;
              }
            in
            { c with c_points = calibrate ~options c ~setup:(setup_of stream) })
          cfg.sk_buckets)
      cfg.sk_streams
  in
  let s = Option.value resume ~default:start in
  let t =
    {
      next_round = s.snap_next_round;
      scenarios = s.snap_scenarios;
      completed = s.snap_completed;
      faulted = s.snap_faulted;
      diverged = s.snap_diverged;
      crashed = s.snap_crashed;
      executions = s.snap_executions;
      ops = s.snap_ops;
      client_ops = s.snap_client_ops;
      races = s.snap_races;
    }
  in
  List.iter
    (fun bs ->
      match List.find_opt (fun c -> c.c_label = bs.bs_combo) combos with
      | Some c ->
          c.c_faults <- bs.bs_faults;
          c.c_quarantined <- bs.bs_quarantined
      | None -> ())
    s.snap_buckets;
  let reason = ref None in
  while !reason = None do
    if Atomic.get stop_flag then reason := Some Interrupted
    else if
      match cfg.sk_wall_s with
      | Some budget -> Unix.gettimeofday () -. t0 >= budget
      | None -> false
    then reason := Some Wall_budget
    else if
      match cfg.sk_max_ops with
      | Some budget -> t.client_ops >= budget
      | None -> false
    then reason := Some Op_budget
    else begin
      let active = List.filter (fun c -> not c.c_quarantined) combos in
      if active = [] then reason := Some Exhausted
      else begin
        let batch =
          List.map
            (fun c ->
              let seed =
                iter_seed ~seed:options.Scenario.seed ~round:t.next_round
                  ~label:c.c_label
              in
              let stream = c.c_stream and bucket = c.c_bucket in
              let name =
                program_name ~stream:stream.os_name ~bucket
                  ~ops:cfg.sk_ops_per_exec ~seed
              in
              (* Oracle contexts are per scenario: the reference is a
                 crash-free run of this round's exact op sequence, so
                 it cannot be memoized across rounds.  A faulting
                 reference (fault-storm streams) just runs the
                 scenario oracle-free. *)
              let oracle =
                if not cfg.sk_oracle then None
                else
                  match
                    Runner.prepare_oracle
                      ~options:{ options with Scenario.seed }
                      (program ~stream ~bucket ~ops:cfg.sk_ops_per_exec ~seed)
                  with
                  | prep -> Option.map (fun pr -> pr.Runner.op_ctx) prep
                  | exception _ -> None
              in
              let sc =
                Scenario.make ?oracle ~label:c.c_label ~setup:(setup_of stream)
                  ~pre:(pre_of ~stream ~bucket ~ops:cfg.sk_ops_per_exec ~seed)
                  ~post:(fun () -> stream.os_audit ())
                  ~plan:(plan_of ~points:c.c_points ~seed)
                  ~options:{ options with Scenario.seed }
                  ()
              in
              (c, name, sc))
            active
        in
        let rr = Engine.run ~jobs:cfg.sk_jobs (List.map (fun (_, _, sc) -> sc) batch) in
        let stats = rr.Engine.stats in
        t.scenarios <- t.scenarios + stats.Engine.scenarios;
        t.completed <- t.completed + stats.Engine.completed;
        t.faulted <- t.faulted + stats.Engine.faulted;
        t.diverged <- t.diverged + stats.Engine.diverged;
        t.executions <- t.executions + stats.Engine.executions;
        t.ops <- t.ops + stats.Engine.ops;
        t.client_ops <- t.client_ops + (cfg.sk_ops_per_exec * List.length active);
        List.iter2
          (fun (c, _, _) res ->
            match res with
            | Engine.Completed comp ->
                if comp.Engine.chain_crashed then t.crashed <- t.crashed + 1;
                t.races <- t.races + List.length comp.Engine.races
            | Engine.Faulted f ->
                t.races <- t.races + List.length f.Engine.f_races;
                c.c_faults <- c.c_faults + 1)
          batch rr.Engine.results;
        (* Quarantine decisions happen at the round boundary, after the
           whole batch merged — deterministic for every jobs count. *)
        List.iter
          (fun (c, _, _) ->
            if (not c.c_quarantined) && c.c_faults >= cfg.sk_fault_budget
            then begin
              c.c_quarantined <- true;
              Observe.Log.warn
                (Printf.sprintf
                   "soak: quarantining %s after %d faulted scenario(s) \
                    (budget %d); continuing with the remaining combos"
                   c.c_label c.c_faults cfg.sk_fault_budget)
            end)
          batch;
        on_batch
          (List.map2 (fun (_, name, sc) res -> (name, sc, res)) batch
             rr.Engine.results);
        t.next_round <- t.next_round + 1;
        if
          cfg.sk_checkpoint_every > 0
          && t.next_round mod cfg.sk_checkpoint_every = 0
        then on_checkpoint (snapshot_of t ~combos)
      end
    end
  done;
  let r_reason = Option.get !reason in
  {
    r_snapshot = snapshot_of t ~combos;
    r_reason;
    r_ok = (match r_reason with Op_budget | Wall_budget -> true | _ -> false);
    r_elapsed_s = Unix.gettimeofday () -. t0;
  }
