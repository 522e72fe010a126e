module Executor = Pm_runtime.Executor

(* Execution ids within one failure scenario: the setup phase is not
   registered with the detector (its data is trusted after a clean
   shutdown); pre-crash is 1, first recovery is 2, a second recovery
   (two-crash scenarios) is 3. *)
let setup_exec = 0
let pre_exec = 1
let post_exec = 2

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Setup memoization                                                    *)

(* The setup phase: default round-robin scheduling, no detector — its
   data is trusted after a clean shutdown. *)
let setup_run (o : Scenario.options) fn =
  Executor.run ~plan:Executor.Run_to_end ~sb_policy:o.Scenario.sb_policy
    ~variant:o.Scenario.variant ~seed:o.Scenario.seed ?max_ops:o.Scenario.max_ops
    ?max_wall_s:o.Scenario.max_wall_s ~exec_id:setup_exec fn

let run_setup opts (p : Program.t) =
  Option.map (fun fn -> (setup_run opts fn).Executor.state) p.Program.setup

let materialize_setup ~(options : Scenario.options) (p : Program.t) =
  match p.Program.setup with
  | None -> Scenario.No_setup
  | Some fn -> (
      match options.Scenario.sb_policy with
      | Px86.Machine.Eager -> (
          (* Eager drain makes the setup run deterministic and
             seed-independent: one snapshot serves every scenario. *)
          match run_setup options p with
          | None -> Scenario.No_setup
          | Some cs -> Scenario.Snapshot cs)
      | Px86.Machine.Random_drain _ ->
          (* The drained state depends on the scenario seed; each
             scenario re-runs the setup with its own options. *)
          Scenario.Run_setup fn)

(* ------------------------------------------------------------------ *)
(* Phase execution                                                      *)

(* Every phase of a scenario funnels through here so pre-crash runs,
   recovery runs and crashed-recovery runs share one code path. *)
let run_phase ?detector ?observer ?inherited ?at_flush_point
    ~(options : Scenario.options) ~plan ~seed ~exec_id body =
  Executor.run ?detector ?observer ?inherited ?at_flush_point ~plan
    ~sb_policy:options.Scenario.sb_policy ~variant:options.Scenario.variant
    ~cut:options.Scenario.cut ~sched:options.Scenario.sched ~seed
    ~check_candidates:options.Scenario.check_candidates
    ?max_ops:options.Scenario.max_ops ?max_wall_s:options.Scenario.max_wall_s
    ~exec_id body

(* The one recovery path: every post-crash [Executor.run] in the
   harness goes through this helper. *)
let run_recovery ?detector ?observer ~options ~inherited ~seed ~exec_id post =
  run_phase ?detector ?observer ~inherited ~options ~plan:Executor.Run_to_end
    ~seed ~exec_id post

(* Coverage index of a crash plan: targeted flush-point plans carry
   their index, crash-at-end is the pseudo-index -1 and untargeted
   plans have none.  Kept here (not in Observe) so lib/observe stays
   free of runtime types. *)
let plan_index = function
  | Executor.Crash_before_flush n -> Some n
  | Executor.Crash_at_end -> Some (-1)
  | Executor.Run_to_end | Executor.Crash_before_op _ -> None

(* Crash-space coverage of each scenario's program (Observe.Coverage):
   scenarios started, crash-plan indices scheduled and crash points
   fired. *)
let t_scenarios = Observe.Metrics.tally "coverage/scenarios"
let s_plans = Observe.Metrics.set "coverage/plan_indices"
let s_crashes = Observe.Metrics.set "coverage/crash_points"

let mark_plan set plan =
  match plan_index plan with Some i -> Observe.Metrics.mark set i | None -> ()

(* Did the crash plan of this run actually fire?  [Crash_at_end]
   completes and then crashes; targeted plans that never fired leave a
   cleanly shut-down state with no crash. *)
let crash_fired ~plan (r : Executor.result) =
  match r.Executor.outcome with
  | Executor.Crashed -> true
  | Executor.Diverged -> false
  | Executor.Completed -> (
      match plan with
      | Executor.Crash_at_end -> true
      | Executor.Run_to_end | Executor.Crash_before_op _
      | Executor.Crash_before_flush _ -> false)

(* ------------------------------------------------------------------ *)
(* Scenario execution                                                   *)

type completed = {
  label : string;
  races : Yashme.Race.t list;
  chain_crashed : bool;
  diverged : bool;
  executions : int;
  ops : int;
  flush_points : int;
  post_flush_points : int option;
  observed : bool;
  violations : (string * string) list;
  wall_s : float;
}

type fault = {
  f_info : Finding.fault;
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
  f_races : Yashme.Race.t list;
  f_executions : int;
  f_ops : int;
  f_wall_s : float;
}

type scenario_result = Completed of completed | Faulted of fault

let m_faults = Observe.Metrics.counter "engine/faults"
let m_recovery_failures = Observe.Metrics.counter "engine/recovery_failures"
let m_cancelled = Observe.Metrics.counter "engine/cancelled"
let m_recoveries_reused = Observe.Metrics.counter "engine/recoveries_reused"
let m_oracle_violations =
  Observe.Metrics.counter ~per_program:true "oracle/violations"

(* Worker-pool cost centers.  Counts and charged units are
   jobs-invariant (one queue-wait charge per claimed scenario, one work
   charge per scenario with the scenario's execution count as units);
   wall clocks are scheduling-dependent and the GC words are volatile:
   they are the worker domain's own allocation ([Gc.counters]), which
   depends on the scenarios the worker ran and on when the collector
   ran. *)
let ct_queue_wait = Observe.Metrics.center "engine/queue_wait"
let ct_work = Observe.Metrics.center ~units:"execs" "engine/work"

let ct_gc_minor =
  Observe.Metrics.center ~units:"words" ~volatile_units:true "gc/minor"

let ct_gc_major =
  Observe.Metrics.center ~units:"words" ~volatile_units:true "gc/major"

(* One charge per oracle observe phase, units = its operation count —
   both jobs-invariant; the count is also the program's oracle-check
   coverage. *)
let ct_oracle =
  Observe.Metrics.center ~units:"ops" ~per_program:true "oracle/observe"

(* One charge per race merge, units = results merged — jobs-invariant;
   the wall clock is the serial post-batch cost, which no extra domain
   shortens. *)
let ct_merge = Observe.Metrics.center ~units:"results" "engine/merge"

(* One scenario's bookkeeping while it runs: its detector, its execution
   and op counts, and the sandbox state — which phase is executing,
   whether a real crash preceded it (a raising recovery then witnesses a
   crash-consistency bug, not an infrastructure fault), and whether any
   phase was terminated by a budget. *)
type run_state = {
  s : Scenario.t;
  t0 : float;
  detector : Yashme.Detector.t;
  mutable execs : int;
  mutable ops : int;
  mutable phase : Finding.phase;
  mutable crash_seen : bool;
  mutable diverged : bool;
}

let start ~t0 (s : Scenario.t) =
  let o = s.Scenario.options in
  {
    s;
    t0;
    detector =
      Yashme.Detector.create ~mode:o.Scenario.mode ~eadr:o.Scenario.eadr
        ~coherence:o.Scenario.coherence ();
    execs = 0;
    ops = 0;
    phase = Finding.Setup;
    crash_seen = false;
    diverged = false;
  }

(* Count one executor run of the scenario. *)
let tally rs (r : Executor.result) =
  rs.execs <- rs.execs + 1;
  rs.ops <- rs.ops + r.Executor.ops;
  if r.Executor.outcome = Executor.Diverged then rs.diverged <- true;
  r

(* The oracle replays the whole chain from the same durable base under
   [Cut_lowerbound], so it takes its own copy of the hydrated setup state
   (copy cost paid only when an oracle context is attached). *)
let oracle_base rs inherited =
  match (rs.s.Scenario.oracle, inherited) with
  | Some _, Some st -> Some (Some (Px86.Crashstate.copy st))
  | Some _, None -> Some None
  | None, _ -> None

(* The detector calls a recovery made, and its result.  A recording of
   a completed recovery, kept for the family members that crash into
   the same state, carries in [result] the crash state the recovery
   started from (the state it left is not kept: no family member runs
   anything after a recovery it replays). *)
type recording = { calls : Yashme.Detector.log; result : Executor.result }

(* How a chain gets a recovery: run it, run it and hand its recording to
   [keep], replay another member's recording in place of the run, or be
   served by a shared run of that recovery, whose calls up to this
   member's crash point and materialization there stand in for it. *)
type recovery =
  | Run
  | Record of (recording -> unit)
  | Replay of recording
  | Served of recording

let replay detector rc =
  Yashme.Detector.replay detector rc.calls;
  rc.result

(* Recovery [exec_id] of scenario [rs] from the crash that left [from],
   under [plan]: both recoveries of a chain go through here. *)
let recover rs ~recovery ~plan ~seed ~exec_id (from : Executor.result) =
  let s = rs.s in
  let run () =
    run_phase ~detector:rs.detector ~options:s.Scenario.options
      ~inherited:from.Executor.state ~plan ~seed ~exec_id s.Scenario.post
  in
  match recovery with
  | Run -> run ()
  | Record keep ->
      Yashme.Detector.log_calls rs.detector;
      let r = run () in
      if r.Executor.outcome = Executor.Completed then
        keep
          {
            calls = Yashme.Detector.logged rs.detector;
            result = { r with Executor.state = from.Executor.state };
          };
      r
  | Replay rc ->
      Observe.Metrics.incr m_recoveries_reused;
      replay rs.detector rc
  | Served rc -> replay rs.detector rc

(* Everything after the pre-crash phase: the recovery chain, the
   oracle's observe phase and the completed record.  [pre] is the
   pre-crash result, already tallied — a scenario's own run or a shared
   run's materialization at this scenario's crash point.  [first] and
   [second] say how the chain gets its two recoveries. *)
let finish ?(first = Run) ?(second = Run) rs ~base (pre : Executor.result) =
  let open Scenario in
  let s = rs.s in
  let opts = s.options in
  let detector = rs.detector in
  let post_flush_points = ref None in
  let pre_fired = crash_fired ~plan:s.plan pre in
  if pre_fired then mark_plan s_crashes s.plan;
  let chain_crashed =
    pre_fired
    && begin
         rs.crash_seen <- true;
         rs.phase <- Finding.Recovery 0;
         let r1 =
           tally rs
             (recover rs ~recovery:first ~plan:s.post_plan ~seed:(opts.seed + 1)
                ~exec_id:post_exec pre)
         in
         post_flush_points := Some r1.Executor.flush_points;
         match s.post_plan with
         | Executor.Run_to_end -> true
         | _ ->
             let fired = crash_fired ~plan:s.post_plan r1 in
             if fired then begin
               mark_plan s_crashes s.post_plan;
               rs.phase <- Finding.Recovery 1;
               ignore
                 (tally rs
                    (recover rs ~recovery:second ~plan:Executor.Run_to_end
                       ~seed:(opts.seed + 2) ~exec_id:(post_exec + 1) r1))
             end;
             fired
       end
  in
  (* Invariant-oracle observe phase: only when an oracle context is
     attached and the chain really crashed and recovered — a clean
     run has nothing to diff.  The scenario's own chain materializes
     crashes with the configured cut (default [Cut_all], the maximal
     recovery view the race detector wants), so the oracle replays
     the identical chain — same plans, same seeds, hence the same
     schedules and crash points — under [Cut_lowerbound]: the image
     holding only what flushes {e guarantee}, the states a real
     power failure is allowed to expose.  Recovery runs over that
     image too (recovery may legitimately repair), then the observe
     hook snapshots the recovered store and the check diffs it
     against the invariant-reachable states.  All replay executions
     are detector-free (observation never adds races) and inside the
     sandbox, so a throwing hook is a contained [Observe]-phase
     fault.  None of this runs without an oracle context, keeping
     oracle-off runs byte-identical. *)
  let observed = ref false in
  let violations = ref [] in
  (match (s.oracle, base) with
  | Some oc, Some base when chain_crashed ->
      rs.phase <- Finding.Observe;
      let lopts = { opts with Scenario.cut = Px86.Machine.Cut_lowerbound } in
      let o_ops = ref 0 in
      let track (r : Executor.result) =
        o_ops := !o_ops + r.Executor.ops;
        tally rs r
      in
      let o_pre =
        track
          (run_phase ?inherited:base ~options:lopts ~plan:s.plan
             ~seed:opts.seed ~exec_id:(post_exec + 2) s.pre)
      in
      let o_final =
        if not (crash_fired ~plan:s.plan o_pre) then None
        else
          let o_r1 =
            track
              (run_phase ~options:lopts ~inherited:o_pre.Executor.state
                 ~plan:s.post_plan ~seed:(opts.seed + 1)
                 ~exec_id:(post_exec + 3) s.post)
          in
          match s.post_plan with
          | Executor.Run_to_end -> Some o_r1.Executor.state
          | _ ->
              if not (crash_fired ~plan:s.post_plan o_r1) then None
              else
                let o_r2 =
                  track
                    (run_recovery ~options:lopts
                       ~inherited:o_r1.Executor.state ~seed:(opts.seed + 2)
                       ~exec_id:(post_exec + 4) s.post)
                in
                Some o_r2.Executor.state
      in
      (match o_final with
      | None -> ()
      | Some st ->
          let snap = ref [] in
          ignore
            (track
               (run_phase ~options:lopts ~inherited:st
                  ~plan:Executor.Run_to_end ~seed:(opts.seed + 3)
                  ~exec_id:(post_exec + 5) (fun () ->
                    snap := oc.oc_observe ())));
          observed := true;
          Observe.Metrics.charge ct_oracle ~units:!o_ops ~wall_us:0;
          let vs = oc.oc_check ~observed:!snap in
          List.iter (fun _ -> Observe.Metrics.incr m_oracle_violations) vs;
          violations := vs)
  | (Some _ | None), _ -> ());
  {
    label = s.label;
    races = Yashme.Detector.races detector;
    chain_crashed;
    diverged = rs.diverged;
    executions = rs.execs;
    ops = rs.ops;
    flush_points = pre.Executor.flush_points;
    post_flush_points = !post_flush_points;
    observed = !observed;
    violations = !violations;
    wall_s = now () -. rs.t0;
  }

(* Run [body] as scenario [rs]: under its label as the ambient coverage
   program, with any exception captured as a fault of the phase that
   was executing. *)
let sandboxed rs body =
  let s = rs.s in
  let opts = s.Scenario.options in
  match
    Observe.Metrics.with_program
      ~variant:(Px86.Variant.label opts.Scenario.variant)
      s.Scenario.label
      (fun () ->
        Observe.Metrics.incr t_scenarios;
        mark_plan s_plans s.Scenario.plan;
        mark_plan s_plans s.Scenario.post_plan;
        body ())
  with
  | c -> Completed c
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let info =
        {
          Finding.label = s.Scenario.label;
          phase = rs.phase;
          exn_text = Printexc.to_string e;
          backtrace = Printexc.raw_backtrace_to_string bt;
          plan = Executor.plan_label s.Scenario.plan;
          post_plan = Executor.plan_label s.Scenario.post_plan;
          seed = opts.Scenario.seed;
          crash_fired = rs.crash_seen;
        }
      in
      Observe.Metrics.incr m_faults;
      if Finding.is_recovery_failure info then
        Observe.Metrics.incr m_recovery_failures;
      Faulted
        {
          f_info = info;
          f_exn = e;
          f_backtrace = bt;
          f_races = Yashme.Detector.races rs.detector;
          f_executions = rs.execs;
          f_ops = rs.ops;
          f_wall_s = now () -. rs.t0;
        }

let run_scenario_from ~t0 (s : Scenario.t) =
  let rs = start ~t0 s in
  sandboxed rs (fun () ->
      let opts = s.Scenario.options in
      let inherited =
        match s.Scenario.setup with
        | Scenario.No_setup -> None
        | Scenario.Snapshot cs -> Some (Px86.Crashstate.copy cs)
        | Scenario.Run_setup fn ->
            Some (tally rs (setup_run opts fn)).Executor.state
      in
      let base = oracle_base rs inherited in
      rs.phase <- Finding.Pre_crash;
      let pre =
        tally rs
          (run_phase ~detector:rs.detector ?inherited ~options:opts
             ~plan:s.Scenario.plan ~seed:opts.Scenario.seed ~exec_id:pre_exec
             s.Scenario.pre)
      in
      finish rs ~base pre)

let run_scenario s = run_scenario_from ~t0:(now ()) s

(* ------------------------------------------------------------------ *)
(* Families: one pre-crash run serves many crash points                 *)

(* Scenarios that agree on everything the pre-crash phase depends on
   and crash it at a flush point or at its end run the same pre-crash
   prefix.  [Cut_random] is left out: its draws are shared state.  So
   are scenarios with an oracle context: the observe phase replays the
   pre-crash program, which would run inside the suspended shared run
   and could disturb volatile state the program keeps outside the
   simulated machine (Memcached's LRU clock). *)
let shareable (s : Scenario.t) =
  Scenario.parallel_safe s
  && Option.is_none s.Scenario.oracle
  &&
  match s.Scenario.plan with
  | Executor.Crash_before_flush _ | Executor.Crash_at_end -> true
  | Executor.Run_to_end | Executor.Crash_before_op _ -> false

let same_family (a : Scenario.t) (b : Scenario.t) =
  String.equal a.Scenario.label b.Scenario.label
  && a.Scenario.setup == b.Scenario.setup
  && a.Scenario.options == b.Scenario.options
  && a.Scenario.pre == b.Scenario.pre
  && a.Scenario.post == b.Scenario.post

(* Members per chunk.  A constant, so the split — and with it every
   counter the shared runs move — is the same at every [jobs]. *)
let chunk_size = 64

(* A unit of work: one scenario, or a chunk of [len] consecutive family
   members from submission index [first]. *)
type item = Single of int | Chunk of { first : int; len : int }

let work_items (arr : Scenario.t array) =
  let n = Array.length arr in
  let rec from i acc =
    if i >= n then List.rev acc
    else
      let s = arr.(i) in
      let rec stop j =
        if
          j < n
          && j - i < chunk_size
          && shareable arr.(j)
          && same_family s arr.(j)
        then stop (j + 1)
        else j
      in
      let j = if shareable s then stop (i + 1) else i + 1 in
      let item = if j - i = 1 then Single i else Chunk { first = i; len = j - i } in
      from j (item :: acc)
  in
  Array.of_list (from 0 [])

(* The furthest of two crash points: [Crash_at_end] beyond every flush
   point. *)
let furthest a b =
  match (a, b) with
  | Executor.Crash_at_end, _ -> a
  | _, Executor.Crash_at_end -> b
  | Executor.Crash_before_flush x, Executor.Crash_before_flush y -> if x >= y then a else b
  | _ -> invalid_arg "Engine.furthest: not a family plan"

let furthest_of plan_of ks =
  List.fold_left (fun acc k -> furthest acc (plan_of k)) (plan_of (List.hd ks)) ks

let crashes_at n = function
  | Executor.Crash_before_flush m -> m = n
  | Executor.Run_to_end | Executor.Crash_at_end | Executor.Crash_before_op _ -> false

(* The record a shared run's detector began for execution [id]: it
   exists from the run's start on. *)
let own_record detector ~id = Option.get (Yashme.Detector.record detector ~id)

(* Serve family member [rs] from shared runs: [records] are their
   execution records (the pre-crash run's, and for a two-crash member
   its row's first recovery's), [setup] the setup run (if the family
   re-runs its setup), [inherited] its setup state and [pre] the result
   the member's own pre-crash phase would have returned.  The member's
   detector reads the shared records; the joins its recoveries make are
   cleared before the shared runs resume. *)
let serve_member ?first ?second rs ~records ~setup ~inherited pre =
  List.iter (Yashme.Detector.adopt rs.detector) records;
  let r =
    sandboxed rs (fun () ->
        Option.iter (fun r -> ignore (tally rs r)) setup;
        let base = oracle_base rs inherited in
        rs.phase <- Finding.Pre_crash;
        finish ?first ?second rs ~base (tally rs pre))
  in
  List.iter Yashme.Exec_record.clear_joins records;
  r

let run_member ~records ?inherited ?first s pre =
  let first = Option.map (fun (calls, result) -> Served { calls; result }) first in
  serve_member ?first (start ~t0:(now ()) s) ~records ~setup:None ~inherited pre

(* Run the chunk of [len] family members from [arr.(first)] on the
   calling domain.  One pre-crash run serves every member at its crash
   point; the two-crash members crashing it at one point form a row,
   and one first recovery from that crash state serves the row the same
   way, one level down.  Members the shared runs cannot serve — a run
   faulted, was stopped by a budget or crashed early ([Pmem.crash_now])
   before their point — fall back to [run_scenario_from].  [emit i r]
   records member [i]'s result; [cancelled ()] is fail-fast's stop
   flag, checked before each member: a member left unserved once it is
   up is cancelled.  A member's wall time runs from the previous
   member's end, so it includes its share of the shared runs. *)
let run_chunk ~emit ~cancelled (arr : Scenario.t array) ~first ~len =
  let member k = arr.(first + k) in
  let members = List.init len Fun.id in
  let pre_plan k = (member k).Scenario.plan in
  let s0 = member 0 in
  let opts = s0.Scenario.options in
  let served = Array.make len false in
  let clock = ref (now ()) in
  let deliver k r =
    served.(k) <- true;
    emit (first + k) r;
    clock := now ()
  in
  let serve ?first ?second k ~records ~setup ~inherited pre =
    if not (cancelled ()) then
      let rs = start ~t0:!clock (member k) in
      deliver k (serve_member ?first ?second rs ~records ~setup ~inherited pre)
  in
  let detector () =
    Yashme.Detector.create ~mode:opts.Scenario.mode ~eadr:opts.Scenario.eadr
      ~coherence:opts.Scenario.coherence ()
  in
  (* Run a phase once for the members [ks], planned to crash where the
     furthest of their crash points ([plan_of]) does, and serve them
     from it: [serve here ~crash next] serves the unserved members
     [here] that crash the phase at one point.  [crash] is the crash
     result there, materialized at most once, and [next ()] gives one
     member the recovery after that crash and the result it starts
     from.

     At a flush point, a member whose crash-state key equals that of
     the last recorded recovery crashes into the state that recovery
     started from: it skips materializing the state and replays the
     recording.  Keys only grow along the run, so only the last
     recording is kept, and it is dropped once the key moves.  The
     members crashing where the run ends, and every unreached member of
     a run that completed before its crash point, are served from its
     result and run their recoveries.  A faulting run serves nobody
     past its fault. *)
  let share ~plan_of ks ~run serve =
    let last = furthest_of plan_of ks in
    let recorded = ref None in
    let at_flush_point n ~key ~ops crash =
      (match !recorded with
      | Some (k, _) when k <> key -> recorded := None
      | Some _ | None -> ());
      match List.filter (fun k -> (not served.(k)) && crashes_at n (plan_of k)) ks with
      | [] -> ()
      | here ->
          let crash = lazy (crash ()) in
          serve here ~crash (fun () ->
              match !recorded with
              | Some (_, rc) ->
                  ( Replay rc,
                    {
                      Executor.outcome = Executor.Crashed;
                      state = rc.result.Executor.state;
                      ops;
                      flush_points = n;
                      crashed_at_op = Some ops;
                    } )
              | None -> (Record (fun rc -> recorded := Some (key, rc)), Lazy.force crash))
    in
    match run ~plan:last ~at_flush_point with
    | exception _ -> ()
    | r -> (
        let unfired =
          r.Executor.outcome = Executor.Completed && last <> Executor.Crash_at_end
        in
        match List.filter (fun k -> (not served.(k)) && (unfired || plan_of k = last)) ks with
        | [] -> ()
        | here -> serve here ~crash:(Lazy.from_val r) (fun () -> (Run, r)))
  in
  let shared = detector () in
  (* The row of two-crash members [ks] that crash the pre-crash run
     where [pre] was materialized.  Its first recovery runs once, with a
     fresh detector that logs its calls and adopts no record: the calls
     find no pre-crash record there, so they check and count nothing.
     A member replays the calls made up to its own crash point against
     its view of the pre-crash record, and reads the row's record as its
     first recovery's. *)
  let row ks ~setup ~inherited (pre : Executor.result) =
    let pre_record = own_record shared ~id:pre_exec in
    let d = detector () in
    Yashme.Detector.log_calls d;
    share
      ~plan_of:(fun k -> (member k).Scenario.post_plan)
      ks
      ~run:(fun ~plan ~at_flush_point ->
        run_phase ~detector:d ~inherited:pre.Executor.state ~options:opts ~plan
          ~seed:(opts.Scenario.seed + 1) ~exec_id:post_exec ~at_flush_point
          s0.Scenario.post)
      (fun here ~crash:_ next ->
        let records = [ pre_record; own_record d ~id:post_exec ] in
        let calls = Yashme.Detector.logged d in
        List.iter
          (fun k ->
            let second, r1 = next () in
            serve k ~first:(Served { calls; result = r1 }) ~second ~records ~setup
              ~inherited pre)
          here)
  in
  let shared_run () =
    match
      match s0.Scenario.setup with
      | Scenario.No_setup -> (None, None)
      | Scenario.Snapshot cs -> (None, Some (Px86.Crashstate.copy cs))
      | Scenario.Run_setup fn ->
          let r = setup_run opts fn in
          (Some r, Some r.Executor.state)
    with
    | exception _ -> () (* a setup fault: every member falls back *)
    | setup, inherited ->
        share ~plan_of:pre_plan members
          ~run:(fun ~plan ~at_flush_point ->
            run_phase ~detector:shared ?inherited ~options:opts ~plan
              ~seed:opts.Scenario.seed ~exec_id:pre_exec ~at_flush_point
              s0.Scenario.pre)
          (fun here ~crash next ->
            let records = [ own_record shared ~id:pre_exec ] in
            let one_crash, two_crash =
              List.partition
                (fun k -> (member k).Scenario.post_plan = Executor.Run_to_end)
                here
            in
            List.iter
              (fun k ->
                let first, pre = next () in
                serve ~first k ~records ~setup ~inherited pre)
              one_crash;
            if two_crash <> [] then begin
              (* A row needs the crash to have fired; a member whose
                 crash did not fire has no recovery to share. *)
              let pre = Lazy.force crash in
              let rows, alone =
                List.partition
                  (fun k -> crash_fired ~plan:(pre_plan k) pre)
                  two_crash
              in
              List.iter (fun k -> serve k ~records ~setup ~inherited pre) alone;
              if rows <> [] then row rows ~setup ~inherited pre
            end)
  in
  Observe.Metrics.with_program
    ~variant:(Px86.Variant.label opts.Scenario.variant)
    s0.Scenario.label shared_run;
  for k = 0 to len - 1 do
    if (not served.(k)) && not (cancelled ()) then
      deliver k (run_scenario_from ~t0:!clock (member k))
  done

(* ------------------------------------------------------------------ *)
(* The worker pool                                                      *)

type stats = {
  jobs : int;
  scenarios : int;
  completed : int;
  faulted : int;
  diverged : int;
  cancelled : int;
  executions : int;
  ops : int;
  cpu_s : float;
  elapsed_s : float;
}

(* The timing-free projections: what determinism comparisons may look
   at.  [cpu_s]/[elapsed_s] and the wall times vary run to run, so
   polymorphic equality over the full records is latently flaky —
   compare these instead.  [cancelled] is zeroed too: under fail-fast
   with several domains, how many queue entries were already claimed
   when the stop flag rose is scheduling-dependent. *)
let structural stats = { stats with cancelled = 0; cpu_s = 0.; elapsed_s = 0. }

(* A fault keeps its [exn_text]; its exception and raw backtrace become
   fixed values, so [=] never meets a closure an exception carries, and
   its rendered backtrace, which depends on the build, is emptied. *)
let no_backtrace = Printexc.get_callstack 0

let signature = function
  | Completed c -> Completed { c with wall_s = 0. }
  | Faulted f ->
      Faulted
        {
          f with
          f_info = { f.f_info with Finding.backtrace = "" };
          f_exn = Exit;
          f_backtrace = no_backtrace;
          f_wall_s = 0.;
        }

type run_result = { results : scenario_result list; stats : stats }

let run ?(jobs = 1) ?(fail_fast = false) scenarios =
  let t0 = now () in
  let arr = Array.of_list scenarios in
  let n = Array.length arr in
  let jobs =
    if List.for_all Scenario.parallel_safe scenarios then
      max 1 (min jobs (max 1 n))
    else begin
      if jobs > 1 then
        Observe.Log.warn
          "Cut_random's shared RNG is not domain-safe; running the batch on 1 \
           domain (use Cut_all/Cut_lowerbound for parallel exploration, or \
           --quiet to silence this)";
      1
    end
  in
  let out = Array.make n None in
  let items = work_items arr in
  Observe.Progress.batch n;
  Observe.Progress.set_jobs jobs;
  let next = Atomic.make 0 in
  (* Cooperative cancellation for fail-fast: a worker that records a
     fault raises the flag; every worker re-checks it before claiming
     the next work item and before each family member, so in-flight
     scenarios finish but the rest of the queue is cancelled — never
     silently "completed". *)
  let stop = Atomic.make false in
  let cancelled () = fail_fast && Atomic.get stop in
  (* Workers claim the next unstarted work item; each result lands in
     its scenario's slot, so the merge below is in submission order no
     matter which domain finished first. *)
  let worker slot =
    let att = Observe.Metrics.is_enabled () in
    let idle_since = ref (if att then Observe.Metrics.now_us () else 0) in
    let gc_mark = ref None in
    (* Record scenario [i]'s result.  Work and GC are charged per
       scenario: the GC delta runs from the previous result of this
       worker (or the claim), like the scenario's wall time. *)
    let emit i r =
      if att then begin
        let execs, wall =
          match r with
          | Completed c -> (c.executions, c.wall_s)
          | Faulted f -> (f.f_executions, f.f_wall_s)
        in
        Observe.Metrics.charge ct_work ~units:execs
          ~wall_us:(int_of_float (wall *. 1e6));
        let ((minor1, _, major1) as g1) = Gc.counters () in
        (match !gc_mark with
        | Some (minor0, _, major0) ->
            Observe.Metrics.charge ct_gc_minor
              ~units:(int_of_float (minor1 -. minor0)) ~wall_us:0;
            Observe.Metrics.charge ct_gc_major
              ~units:(int_of_float (major1 -. major0)) ~wall_us:0
        | None -> ());
        gc_mark := Some g1
      end;
      out.(i) <- Some r;
      (match r with
      | Completed c ->
          Observe.Progress.tick ~lane:slot ~races:(List.length c.races)
            ~faulted:false ()
      | Faulted f ->
          Observe.Progress.tick ~lane:slot ~races:(List.length f.f_races)
            ~faulted:true ());
      match r with
      | Faulted _ when fail_fast -> Atomic.set stop true
      | Faulted _ | Completed _ -> ()
    in
    let rec loop () =
      if not (Atomic.get stop) then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length items then begin
          if att then begin
            Observe.Metrics.charge ct_queue_wait ~units:0
              ~wall_us:(Observe.Metrics.now_us () - !idle_since);
            gc_mark := Some (Gc.counters ())
          end;
          (match items.(k) with
          | Single i -> emit i (run_scenario arr.(i))
          | Chunk { first; len } -> run_chunk ~emit ~cancelled arr ~first ~len);
          if att then idle_since := Observe.Metrics.now_us ();
          loop ()
        end
      end
    in
    loop ()
  in
  if jobs = 1 then worker 0
  else begin
    let helpers =
      List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join helpers
  end;
  let cancelled = ref 0 in
  Array.iter
    (function
      | Some _ -> ()
      | None ->
          incr cancelled;
          Observe.Metrics.incr m_cancelled)
    out;
  if fail_fast then begin
    (* Re-raise the earliest-submitted recorded fault with its original
       backtrace.  (With several domains, a later-submitted scenario may
       fault first in wall time; the submission-order scan keeps the
       choice as deterministic as cancellation allows.) *)
    let first_fault =
      Array.to_seq out
      |> Seq.find_map (function Some (Faulted f) -> Some f | _ -> None)
    in
    match first_fault with
    | Some f -> Printexc.raise_with_backtrace f.f_exn f.f_backtrace
    | None -> ()
  end;
  let results = Array.to_list out |> List.filter_map Fun.id in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let execs = function Completed c -> c.executions | Faulted f -> f.f_executions in
  let ops = function Completed c -> c.ops | Faulted f -> f.f_ops in
  let wall = function Completed c -> c.wall_s | Faulted f -> f.f_wall_s in
  let count p = sum (fun r -> if p r then 1 else 0) in
  let stats =
    {
      jobs;
      scenarios = n;
      completed = count (function Completed _ -> true | Faulted _ -> false);
      faulted = count (function Faulted _ -> true | Completed _ -> false);
      diverged = count (function Completed c -> c.diverged | Faulted _ -> false);
      cancelled = !cancelled;
      executions = sum execs;
      ops = sum ops;
      cpu_s = List.fold_left (fun acc r -> acc +. wall r) 0. results;
      elapsed_s = now () -. t0;
    }
  in
  { results; stats }

(* Merged races of a run, in scenario order (see
   {!Yashme.Race.merge_ordered} for why order matters).  Races observed
   before a fault are genuine evidence and are kept. *)
let races ?(keep = fun (_ : completed) -> true) run =
  let att = Observe.Metrics.is_enabled () in
  let w0 = if att then Observe.Metrics.now_us () else 0 in
  let merged =
    Yashme.Race.merge_ordered
      (List.map
         (function
           | Completed c -> if keep c then c.races else []
           | Faulted f -> f.f_races)
         run.results)
  in
  if att then
    Observe.Metrics.charge ct_merge ~units:(List.length run.results)
      ~wall_us:(Observe.Metrics.now_us () - w0);
  merged

(* Faults of a run, in submission order — the list {!Report.dedup}
   folds into recovery-failure findings and fault counts. *)
let faults run =
  List.filter_map
    (function Faulted f -> Some f.f_info | Completed _ -> None)
    run.results

let diverged_count run = run.stats.diverged
