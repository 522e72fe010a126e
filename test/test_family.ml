(* Tests for family execution: the engine runs consecutive scenarios
   that share a pre-crash prefix from one pre-crash run, serving each
   crash point as the run passes it, and replays a recorded recovery
   for members whose crash state is unchanged.  First the invariants
   that sharing relies on, then a differential check of [Engine.run]
   against [Engine.run_scenario] run one scenario at a time. *)

open Pm_runtime
module Engine = Pm_harness.Engine
module Scenario = Pm_harness.Scenario
module Runner = Pm_harness.Runner
module Program = Pm_harness.Program
module Registry = Pm_benchmarks.Registry
module Demo = Pm_benchmarks.Demo_faults

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let options = Runner.default_options

let mc_plans points =
  List.init points (fun n -> Executor.Crash_before_flush n)
  @ [ Executor.Crash_at_end ]

let fingerprint v = Marshal.to_string v []

(* The setup state a family's shared run starts from, uncopied. *)
let setup_state (p : Program.t) =
  match Engine.materialize_setup ~options p with
  | Scenario.Snapshot cs -> Some cs
  | Scenario.No_setup -> None
  | Scenario.Run_setup _ -> Alcotest.fail "eager drain memoizes the setup"

let pre_record detector =
  match Yashme.Detector.record detector ~id:Engine.pre_exec with
  | Some r -> r
  | None -> Alcotest.fail "the pre-crash run registered no record"

(* ------------------------------------------------------------------ *)
(* Invariants                                                           *)

(* (a) A run never mutates its inherited crash state: members at one
   crash point share one materialized state, and a shared run's setup
   state is never copied per member. *)
let test_inherited_untouched () =
  List.iter
    (fun (p : Program.t) ->
      let name = p.Program.name in
      let setup = setup_state p in
      let before = fingerprint setup in
      let points = Runner.count_flush_points p in
      let detector = Yashme.Detector.create () in
      let pre =
        Engine.run_phase ~detector ?inherited:setup ~options
          ~plan:(Executor.Crash_before_flush (points / 2))
          ~seed:options.Scenario.seed ~exec_id:Engine.pre_exec p.Program.pre
      in
      check_str (name ^ ": pre-crash run leaves its setup state") before
        (fingerprint setup);
      let crashed = pre.Executor.state in
      let before = fingerprint crashed in
      let recover plan exec_id =
        Engine.run_phase ~detector ~inherited:crashed ~options ~plan
          ~seed:(options.Scenario.seed + 1) ~exec_id p.Program.post
      in
      let r1 = recover Executor.Run_to_end Engine.post_exec in
      ignore (recover (Executor.Crash_before_flush 0) (Engine.post_exec + 1));
      check_str (name ^ ": recoveries leave their crash state") before
        (fingerprint crashed);
      (* and a second-level crash state is left alone by its recovery *)
      let before = fingerprint r1.Executor.state in
      ignore
        (Engine.run_recovery ~detector ~options ~inherited:r1.Executor.state
           ~seed:(options.Scenario.seed + 2) ~exec_id:(Engine.post_exec + 2)
           p.Program.post);
      check_str (name ^ ": second recovery leaves its state") before
        (fingerprint r1.Executor.state))
    Registry.all

(* (b) A pre-crash phase raises no race and joins nothing into its
   record's [lastflush]/[cvpre], at every crash point and at its end. *)
let test_pre_crash_joins_nothing () =
  List.iter
    (fun (p : Program.t) ->
      let name = p.Program.name in
      let detector = Yashme.Detector.create () in
      let points = ref 0 in
      let at_flush_point _ ~key:_ ~ops:_ _ =
        incr points;
        check (name ^ ": no race before a crash point") true
          (Yashme.Detector.races detector = []);
        check (name ^ ": no joins before a crash point") true
          (Yashme.Exec_record.joins_empty (pre_record detector))
      in
      ignore
        (Engine.run_phase ~detector ?inherited:(setup_state p) ~at_flush_point
           ~options ~plan:Executor.Crash_at_end ~seed:options.Scenario.seed
           ~exec_id:Engine.pre_exec p.Program.pre);
      check (name ^ ": the hook saw every flush point") true
        (!points = Runner.count_flush_points p);
      check (name ^ ": no race in the pre-crash phase") true
        (Yashme.Detector.races detector = []);
      check (name ^ ": no joins in the pre-crash phase") true
        (Yashme.Exec_record.joins_empty (pre_record detector)))
    Registry.all

(* Figure 5(a)'s shape with flush points after the stores: x and y
   share a line, y is a release store, and recovery reads y with an
   acquire load first — a [Load_Atomic] that joins the pre-crash
   record's [lastflush] and [cvpre]. *)
let fig5a =
  Program.make ~name:"fig5a"
    ~pre:(fun () ->
      let x = Pmem.alloc ~align:64 16 in
      Pmem.set_root 0 x;
      Pmem.store ~label:"x" x 1L;
      Pmem.store ~label:"y" ~atomic:Px86.Access.Release (x + 8) 1L;
      Pmem.clflush x;
      Pmem.sfence ();
      Pmem.store ~label:"x" x 2L;
      Pmem.mfence ())
    ~post:(fun () ->
      let x = Pmem.get_root 0 in
      ignore (Pmem.load ~atomic:Px86.Access.Acquire (x + 8));
      ignore (Pmem.load x))
    ()

(* (c) Serving a member leaves the shared pre-crash record exactly as
   it found it, although the member's recovery joins into it. *)
let test_member_leaves_record () =
  let shared = Yashme.Detector.create () in
  let served = ref 0 and joined = ref 0 in
  let at_flush_point n ~key:_ ~ops:_ crash =
    let record = pre_record shared in
    let before = fingerprint record in
    let pre = crash () in
    (* The shape matters: a bare recovery over this state does join. *)
    let probe = Yashme.Detector.create () in
    Yashme.Detector.adopt probe record;
    ignore
      (Engine.run_recovery ~detector:probe ~options
         ~inherited:pre.Executor.state ~seed:(options.Scenario.seed + 1)
         ~exec_id:Engine.post_exec fig5a.Program.post);
    if not (Yashme.Exec_record.joins_empty record) then incr joined;
    Yashme.Exec_record.clear_joins record;
    check_str (Printf.sprintf "point %d: clearing restores the record" n) before
      (fingerprint record);
    let s =
      Scenario.of_program ~setup:Scenario.No_setup
        ~plan:(Executor.Crash_before_flush n) ~options fig5a
    in
    let member = Engine.run_member ~records:[ record ] s pre in
    check_str (Printf.sprintf "point %d: record as found" n) before
      (fingerprint record);
    check (Printf.sprintf "point %d: member = its own scenario" n) true
      (Engine.signature member = Engine.signature (Engine.run_scenario s));
    incr served
  in
  ignore
    (Engine.run_phase ~detector:shared ~at_flush_point ~options
       ~plan:Executor.Crash_at_end ~seed:options.Scenario.seed
       ~exec_id:Engine.pre_exec fig5a.Program.pre);
  check_int "every flush point served" (Runner.count_flush_points fig5a) !served;
  check "some member's recovery joined lastflush" true (!joined > 0)

(* fig5a one level down: the recovery reads y with an acquire load, then
   writes and flushes x and y itself, so a second recovery's acquire
   load of y joins the first recovery's record. *)
let fig5a_recovery =
  Program.make ~name:"fig5a-recovery" ~pre:fig5a.Program.pre
    ~post:(fun () ->
      let x = Pmem.get_root 0 in
      ignore (Pmem.load ~atomic:Px86.Access.Acquire (x + 8));
      ignore (Pmem.load x);
      Pmem.store ~label:"x" x 3L;
      Pmem.store ~label:"y" ~atomic:Px86.Access.Release (x + 8) 3L;
      Pmem.clflush x;
      Pmem.sfence ();
      Pmem.store ~label:"x" x 4L;
      Pmem.mfence ())
    ()

(* (c') The same for a row: one recovery run from a pre-crash crash
   state serves the two-crash members crashing it, and serving a member
   leaves both the pre-crash record and the row's own record as it
   found them, although the member's second recovery joins into both. *)
let test_row_member_leaves_records () =
  let shared = Yashme.Detector.create () in
  let served = ref 0 and joined = ref 0 in
  let seed = options.Scenario.seed in
  let at_pre_point n ~key:_ ~ops:_ crash =
    let record = pre_record shared in
    let pre = crash () in
    let row = Yashme.Detector.create () in
    Yashme.Detector.log_calls row;
    let at_post_point m ~key:_ ~ops:_ crash =
      let row_record =
        match Yashme.Detector.record row ~id:Engine.post_exec with
        | Some r -> r
        | None -> Alcotest.fail "the row run registered no record"
      in
      let point = Printf.sprintf "points %d/%d" n m in
      let before = fingerprint (record, row_record) in
      let r1 = crash () in
      (* The shape matters: a bare second recovery does join the row's
         record. *)
      let probe = Yashme.Detector.create () in
      Yashme.Detector.adopt probe record;
      Yashme.Detector.adopt probe row_record;
      ignore
        (Engine.run_recovery ~detector:probe ~options ~inherited:r1.Executor.state
           ~seed:(seed + 2) ~exec_id:(Engine.post_exec + 1) fig5a_recovery.Program.post);
      if not (Yashme.Exec_record.joins_empty row_record) then incr joined;
      Yashme.Exec_record.clear_joins record;
      Yashme.Exec_record.clear_joins row_record;
      check_str (point ^ ": clearing restores the records") before
        (fingerprint (record, row_record));
      let s =
        Scenario.of_program ~setup:Scenario.No_setup
          ~plan:(Executor.Crash_before_flush n)
          ~post_plan:(Executor.Crash_before_flush m) ~options fig5a_recovery
      in
      let member =
        Engine.run_member ~records:[ record; row_record ]
          ~first:(Yashme.Detector.logged row, r1)
          s pre
      in
      check_str (point ^ ": records as found") before (fingerprint (record, row_record));
      check (point ^ ": member = its own scenario") true
        (Engine.signature member = Engine.signature (Engine.run_scenario s));
      incr served
    in
    ignore
      (Engine.run_phase ~detector:row ~inherited:pre.Executor.state
         ~at_flush_point:at_post_point ~options ~plan:Executor.Crash_at_end
         ~seed:(seed + 1) ~exec_id:Engine.post_exec fig5a_recovery.Program.post)
  in
  ignore
    (Engine.run_phase ~detector:shared ~at_flush_point:at_pre_point ~options
       ~plan:Executor.Crash_at_end ~seed ~exec_id:Engine.pre_exec
       fig5a_recovery.Program.pre);
  (* the recovery is straight-line: three flush points from any state *)
  check_int "every pair of flush points served"
    (Runner.count_flush_points fig5a * 3)
    !served;
  check "some second recovery joined the row's record" true (!joined > 0)

(* An allocation between two fences moves only the heap break: the
   two fences' crash states differ in nothing else. *)
let alloc_between_fences =
  Program.make ~name:"alloc-between-fences"
    ~pre:(fun () ->
      let a = Pmem.alloc ~align:64 8 in
      Pmem.set_root 0 a;
      Pmem.store ~label:"a" a 1L;
      Pmem.clflush a;
      Pmem.sfence ();
      ignore (Pmem.alloc ~align:64 64);
      Pmem.mfence ();
      Pmem.sfence ())
    ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
    ()

(* (d) The key the executor passes the hook stands for the crash state:
   wherever a flush point's key equals the previous point's, the two
   materialized states are equal.  One level down too: a recovery run
   from each of a program's crash states, whose own states hold origins
   from two executions, the pre-crash run's and the recovery's. *)
let test_key_stands_for_state () =
  let equal_keys = ref 0 and two_execs = ref 0 in
  (* Materialize every flush point of the phase [run] runs, check it
     against the previous point's and hand it to [f] with whether the
     keys were equal. *)
  let walk label run f =
    let previous = ref None in
    let at_flush_point n ~key ~ops:_ crash =
      let state = (crash ()).Executor.state in
      let equal =
        match !previous with
        | Some (k, prev) when k = key ->
            incr equal_keys;
            check
              (Printf.sprintf "%s: point %d has point %d's key and state" label n (n - 1))
              true
              (String.equal (fingerprint prev) (fingerprint state));
            true
        | Some _ | None -> false
      in
      previous := Some (key, state);
      f n state equal
    in
    ignore (run ~at_flush_point)
  in
  let holds (st : Px86.Crashstate.t) exec =
    Px86.Crashstate.fold_origins
      (fun _ (o : Px86.Crashstate.origin) found -> found || o.Px86.Crashstate.exec_id = exec)
      st false
  in
  List.iter
    (fun (p : Program.t) ->
      let name = p.Program.name in
      let recovery n state _ =
        walk
          (Printf.sprintf "%s, recovery from point %d" name n)
          (fun ~at_flush_point ->
            Engine.run_phase ~detector:(Yashme.Detector.create ()) ~inherited:state
              ~at_flush_point ~options ~plan:Executor.Crash_at_end
              ~seed:(options.Scenario.seed + 1) ~exec_id:Engine.post_exec p.Program.post)
          (fun _ st equal ->
            if equal && holds st Engine.pre_exec && holds st Engine.post_exec then
              incr two_execs)
      in
      walk name
        (fun ~at_flush_point ->
          Engine.run_phase ~detector:(Yashme.Detector.create ()) ?inherited:(setup_state p)
            ~at_flush_point ~options ~plan:Executor.Crash_at_end
            ~seed:options.Scenario.seed ~exec_id:Engine.pre_exec p.Program.pre)
        recovery)
    (alloc_between_fences :: Registry.all);
  check "some flush points share their predecessor's key" true (!equal_keys > 0);
  check "some equal-key recovery states hold origins of both executions" true
    (!two_execs > 0)

(* (e) A pre-crash run reads setup data, whose execution its detector
   holds no record of, so a run that does not log looks no origin up
   (Executor.run).  Logging forces the lookups: every call logged names
   an execution the detector holds no record of, so replayed against the
   run's own record the calls check, count and report nothing. *)
let test_logged_calls_name_no_record () =
  let calls = ref 0 in
  List.iter
    (fun (p : Program.t) ->
      let d = Yashme.Detector.create () in
      Yashme.Detector.log_calls d;
      ignore
        (Engine.run_phase ~detector:d
           ?inherited:(Option.map Px86.Crashstate.copy (setup_state p))
           ~options ~plan:Executor.Run_to_end ~seed:options.Scenario.seed
           ~exec_id:Engine.pre_exec p.Program.pre);
      let log = Yashme.Detector.logged d in
      calls := !calls + Yashme.Detector.log_length log;
      let probe = Yashme.Detector.create () in
      Yashme.Detector.adopt probe (pre_record d);
      Observe.Metrics.reset ();
      Observe.Metrics.enable ();
      Fun.protect ~finally:Observe.Metrics.disable (fun () ->
          Yashme.Detector.replay probe log);
      List.iter
        (fun (name, v) ->
          if String.starts_with ~prefix:"detector/" name && v <> 0 then
            Alcotest.failf "%s: the logged calls moved %s" p.Program.name name)
        (Observe.Metrics.snapshot ());
      check (p.Program.name ^ ": no race") true (Yashme.Detector.races probe = []))
    Registry.all;
  check "some pre-crash run reads setup data" true (!calls > 0)

(* ------------------------------------------------------------------ *)
(* Differential: Engine.run = Engine.run_scenario one at a time         *)

let first_mismatch expected actual =
  let rec go i = function
    | e :: es, a :: as_ -> if e = a then go (i + 1) (es, as_) else Some i
    | [], [] -> None
    | _ -> Some i
  in
  go 0 (expected, actual)

(* Run [f] on a fresh registry and read what must not depend on how a
   batch ran: the detector counters but [detector/flush_records] (a
   shared run records its flushes once) and the coverage view; plus
   [engine/recoveries_reused] and the recovery runs ([phase/post]'s
   count). *)
let observed f =
  Observe.Metrics.reset ();
  Observe.Metrics.enable ();
  Fun.protect ~finally:Observe.Metrics.disable (fun () ->
      let v = f () in
      let counters = Observe.Metrics.snapshot () in
      let detector =
        List.filter
          (fun (name, _) ->
            String.starts_with ~prefix:"detector/" name
            && name <> "detector/flush_records")
          counters
      in
      let reused =
        Option.value ~default:0 (List.assoc_opt "engine/recoveries_reused" counters)
      in
      let post_runs =
        List.fold_left
          (fun n (r : Observe.Metrics.reading) ->
            if r.Observe.Metrics.name = "phase/post" then r.Observe.Metrics.count else n)
          0 (Observe.Metrics.cells ())
      in
      (v, (detector, Observe.Coverage.snapshot ()), (reused, post_runs)))

(* The first counter whose value differs between two readings. *)
let counter_mismatch expected actual =
  List.find_opt
    (fun name -> List.assoc_opt name expected <> List.assoc_opt name actual)
    (List.sort_uniq compare (List.map fst expected @ List.map fst actual))

(* Check [Engine.run] at jobs 1, 2 and 4 against [run_scenario] one at
   a time: per-scenario signatures, detector counters and coverage.
   Returns the signatures, the number of recoveries reused and the
   number of recovery runs (both the same at every jobs). *)
let check_batch name scenarios =
  let expected, (counters, coverage), _ =
    observed (fun () ->
        List.map (fun s -> Engine.signature (Engine.run_scenario s)) scenarios)
  in
  let engine = ref None in
  List.iter
    (fun jobs ->
      let actual, (counters', coverage'), e =
        observed (fun () ->
            List.map Engine.signature (Engine.run ~jobs scenarios).Engine.results)
      in
      (match first_mismatch expected actual with
      | None -> ()
      | Some i ->
          Alcotest.failf
            "%s, jobs=%d: scenario %d of %d differs from run_scenario" name
            jobs i (List.length scenarios));
      (match counter_mismatch counters counters' with
      | None -> ()
      | Some counter ->
          let value c = Option.fold ~none:"absent" ~some:string_of_int (List.assoc_opt counter c) in
          Alcotest.failf "%s, jobs=%d: %s is %s under run_scenario, %s under run" name jobs
            counter (value counters) (value counters'));
      check (Printf.sprintf "%s, jobs=%d: coverage as run_scenario's" name jobs) true
        (coverage = coverage');
      match !engine with
      | None -> engine := Some e
      | Some e1 ->
          check (Printf.sprintf "%s, jobs=%d: reuse and recovery runs jobs-invariant" name jobs)
            true (e1 = e))
    [ 1; 2; 4 ];
  let reused, post_runs = Option.value ~default:(0, 0) !engine in
  (expected, reused, post_runs)

(* Both waves of recovery model checking for every registry program:
   the probe wave (one scenario per crash point) and the grid (each
   crash point's recovery crashed at each of its own flush points).  A
   grid row runs its first recovery once, so the grid runs fewer
   recoveries than it has members (each member would run two). *)
let test_registry_waves () =
  let grids = ref 0 and reused = ref 0 in
  let grid_reused = ref 0 and grid_post_runs = ref 0 in
  let rendered = ref 0 in
  (* Every race of the waves renders as the Format reference does. *)
  let check_rendering results =
    List.iter
      (function
        | Engine.Completed c ->
            List.iter
              (fun r ->
                incr rendered;
                check_str "race rendering" (Race_reference.to_string r)
                  (Yashme.Race.to_string r))
              c.Engine.races
        | Engine.Faulted _ -> ())
      results
  in
  List.iter
    (fun (p : Program.t) ->
      let setup = Engine.materialize_setup ~options p in
      let plans = mc_plans (Runner.count_flush_points p) in
      let wave1 =
        List.map (fun plan -> Scenario.of_program ~setup ~plan ~options p) plans
      in
      let probes, r, _ = check_batch (p.Program.name ^ " probe wave") wave1 in
      reused := !reused + r;
      check_rendering probes;
      let grid =
        List.concat
          (List.map2
             (fun plan probe ->
               match probe with
               | Engine.Completed
                   { Engine.chain_crashed = true; post_flush_points = Some k; _ } ->
                   List.init k (fun n ->
                       Scenario.of_program ~setup ~plan
                         ~post_plan:(Executor.Crash_before_flush n) ~options p)
               | Engine.Completed _ | Engine.Faulted _ -> [])
             plans probes)
      in
      grids := !grids + List.length grid;
      let rows, r, post_runs = check_batch (p.Program.name ^ " grid wave") grid in
      check_rendering rows;
      grid_reused := !grid_reused + r;
      grid_post_runs := !grid_post_runs + post_runs)
    Registry.all;
  check "some race rendered" true (!rendered > 0);
  check "some recovery has flush points to crash" true (!grids > 0);
  check "some probe replayed a recorded recovery" true (!reused > 0);
  check "some grid member replayed a recorded second recovery" true (!grid_reused > 0);
  if !grid_post_runs >= !grids then
    Alcotest.failf "the grid waves ran %d recoveries for %d members" !grid_post_runs !grids

let raising =
  Program.make ~name:"raising"
    ~pre:(fun () ->
      let a = Pmem.alloc ~align:64 8 in
      Pmem.store ~label:"pre-fault" a 1L;
      failwith "boom")
    ~post:(fun () -> ())
    ()

(* A helper thread raises between flush points 1 and 2 while the main
   thread goes on flushing: members before the fault are served by the
   shared run; the rest fault (the run re-raises once its threads are
   done) and must fall back to fault on their own. *)
let raising_late =
  Program.make ~name:"raising-late"
    ~pre:(fun () ->
      let a = Pmem.alloc ~align:64 8 in
      Pmem.store ~label:"late" a 1L;
      Pmem.clflush a;
      Pmem.mfence ();
      let t = Pmem.spawn (fun () -> failwith "late boom") in
      Pmem.store ~label:"late" a 2L;
      Pmem.clflush a;
      Pmem.mfence ();
      Pmem.join t)
    ~post:(fun () -> ignore (Pmem.load (Pmem.alloc ~align:64 8)))
    ()

(* Crashes itself between its flush points. *)
let crashing =
  Program.make ~name:"crash-now"
    ~pre:(fun () ->
      let a = Pmem.alloc ~align:64 8 in
      Pmem.set_root 0 a;
      Pmem.store ~label:"c" a 1L;
      Pmem.clflush a;
      Pmem.mfence ();
      Pmem.store ~label:"c" a 2L;
      Pmem.crash_now ())
    ~post:(fun () -> ignore (Pmem.load (Pmem.get_root 0)))
    ()

let family ?post_plan ~options (p : Program.t) plans =
  let setup = Engine.materialize_setup ~options p in
  List.map
    (fun plan -> Scenario.of_program ?post_plan ~setup ~plan ~options p)
    plans

let oracle_family (p : Program.t) =
  let oracle =
    match Runner.prepare_oracle ~options p with
    | Some prep -> prep.Runner.op_ctx
    | None -> Alcotest.failf "%s has an observe hook" p.Program.name
  in
  let setup = Engine.materialize_setup ~options p in
  List.map
    (fun plan -> Scenario.of_program ~oracle ~setup ~plan ~options p)
    (mc_plans (Runner.count_flush_points p))

(* Families the shared run cannot fully serve, side by side: a
   pre-crash fault before and after flush points, a budget divergence
   (with a member beyond it), [Pmem.crash_now], recovery faults on both
   waves, members in no particular order or past the last flush point,
   a re-run ([Random_drain]) setup, and oracle scenarios (never shared:
   Memcached's observe phase would disturb its volatile LRU clock). *)
let test_fault_batches () =
  let budget = { options with Scenario.max_ops = Some 400 } in
  let cbf n = Executor.Crash_before_flush n and at_end = Executor.Crash_at_end in
  let drained =
    { options with Scenario.sb_policy = Px86.Machine.Random_drain 0.5 }
  in
  let cceh = Pm_benchmarks.Cceh.program in
  let faulty = Demo.faulty_recovery in
  let faulty_points = Runner.count_flush_points faulty in
  let batch =
    family ~options:budget raising [ cbf 0; cbf 1; at_end ]
    @ family ~options:budget raising_late [ cbf 0; cbf 1; cbf 2; cbf 3; at_end ]
    @ family ~options:budget Demo.diverge [ cbf 0; cbf 1; cbf 5; at_end ]
    @ family ~options crashing [ cbf 0; cbf 1; cbf 2; cbf 9; at_end ]
    @ family ~options faulty (mc_plans faulty_points)
    @ family ~options ~post_plan:(cbf 0) faulty (mc_plans faulty_points)
    @ family ~options cceh [ at_end; cbf 3; cbf 1; cbf 100_000; cbf 3 ]
    @ family ~options cceh [ cbf 1; cbf 100_000; cbf 200_000 ]
    @ family ~options:drained cceh [ cbf 0; cbf 4; cbf 9; at_end ]
    @ oracle_family Demo.inconsistency
    @ oracle_family Pm_benchmarks.Memcached.program
  in
  let sigs, _, _ = check_batch "fault batch" batch in
  let faulted =
    List.filter (function Engine.Faulted _ -> true | _ -> false) sigs
  in
  let diverged =
    List.filter
      (function Engine.Completed c -> c.Engine.diverged | _ -> false)
      sigs
  in
  let observed =
    List.filter
      (function Engine.Completed c -> c.Engine.observed | _ -> false)
      sigs
  in
  check "faults present" true (List.length faulted >= 6);
  check "divergences present" true (diverged <> []);
  check "oracle observed" true (observed <> [])

(* Two-crash families whose recovery has flush points of its own: a
   setup that roots a buffer, a pre-crash phase with four flush points
   and recovery [post]. *)
let two_crash_program ~name post =
  Program.make ~name
    ~setup:(fun () -> Pmem.set_root 0 (Pmem.alloc ~align:64 128))
    ~pre:(fun () ->
      let a = Pmem.get_root 0 in
      Pmem.store ~label:"pre" a 1L;
      Pmem.clflush a;
      Pmem.mfence ();
      Pmem.store ~label:"pre" a 2L;
      Pmem.clflush a;
      Pmem.mfence ())
    ~post ()

(* One recovery step, two flush points: read what the last executions
   left and persist a repair of its own. *)
let recovery_step label =
  let a = Pmem.get_root 0 in
  ignore (Pmem.load (a + 64));
  ignore (Pmem.load a);
  Pmem.store ~label (a + 64) 3L;
  Pmem.clflush (a + 64);
  Pmem.mfence ()

(* A helper thread raises between the recovery's flush points 1 and 2,
   while the main thread goes on flushing. *)
let raising_recovery =
  two_crash_program ~name:"raising-recovery" (fun () ->
      recovery_step "r1";
      let t = Pmem.spawn (fun () -> failwith "recovery boom") in
      recovery_step "r2";
      recovery_step "r3";
      Pmem.join t)

(* Spins after four flush points: only a budget stops it. *)
let diverging_recovery =
  two_crash_program ~name:"diverging-recovery" (fun () ->
      recovery_step "d1";
      recovery_step "d2";
      while Pmem.load_int (Pmem.get_root 0) >= 0 do
        Pmem.yield ()
      done)

(* Crashes itself after four flush points. *)
let crashing_recovery =
  two_crash_program ~name:"crashing-recovery" (fun () ->
      recovery_step "c1";
      recovery_step "c2";
      Pmem.store ~label:"c" (Pmem.get_root 0) 5L;
      Pmem.crash_now ())

(* Rows the recovery run cannot fully serve: each family crashes its
   pre-crash phase at two flush points and at its end, and each such
   crash state's recovery at flush points before, at and past where the
   recovery raises, diverges or crashes itself.  Members before that
   point are served by the row's run; the rest fall back and must fault,
   diverge or crash on their own, exactly as run one by one. *)
let test_recovery_rows () =
  let budget = { options with Scenario.max_ops = Some 300 } in
  let cbf n = Executor.Crash_before_flush n in
  let rows (p : Program.t) =
    let setup = Engine.materialize_setup ~options:budget p in
    List.concat_map
      (fun plan ->
        List.map
          (fun post_plan ->
            Scenario.of_program ~setup ~plan ~post_plan ~options:budget p)
          [ cbf 0; cbf 1; cbf 2; cbf 3; cbf 5; cbf 100_000 ])
      [ cbf 0; cbf 2; Executor.Crash_at_end ]
  in
  let batch =
    List.concat_map rows [ raising_recovery; diverging_recovery; crashing_recovery ]
  in
  let sigs, _, _ = check_batch "recovery rows" batch in
  let count p = List.length (List.filter p sigs) in
  check_int "scenarios" 54 (List.length sigs);
  check_int "faulted" 18
    (count (function Engine.Faulted _ -> true | Engine.Completed _ -> false));
  check_int "diverged" 18
    (count (function
      | Engine.Completed c -> c.Engine.diverged
      | Engine.Faulted _ -> false));
  check "some second crash fired" true
    (count (function
       | Engine.Completed c -> c.Engine.chain_crashed
       | Engine.Faulted _ -> false)
    > 0)

(* Fail-fast cancels the members a fault leaves unserved: at jobs=1
   exactly the scenarios after the first fault, as a sequential loop
   would, and at every jobs count it re-raises that fault. *)
let test_fail_fast () =
  let healthy =
    family ~options Pm_benchmarks.Cceh.program
      [ Executor.Crash_before_flush 0; Executor.Crash_before_flush 1 ]
  in
  let faulty =
    family ~options Demo.faulty_recovery
      (mc_plans (Runner.count_flush_points Demo.faulty_recovery))
  in
  let batch = healthy @ faulty in
  let rec first_fault i = function
    | [] -> Alcotest.fail "the batch has a recovery fault"
    | s :: rest -> (
        match Engine.run_scenario s with
        | Engine.Faulted f -> (i, f.Engine.f_info.Pm_harness.Finding.exn_text)
        | Engine.Completed _ -> first_fault (i + 1) rest)
  in
  let index, text = first_fault 0 batch in
  List.iter
    (fun jobs ->
      Observe.Metrics.enable ();
      let before = Observe.Metrics.snapshot () in
      (match Engine.run ~jobs ~fail_fast:true batch with
      | _ -> Alcotest.fail "fail-fast must re-raise"
      | exception e ->
          check_str (Printf.sprintf "jobs=%d: first fault re-raised" jobs) text
            (Printexc.to_string e));
      let diff = Observe.Metrics.diff before (Observe.Metrics.snapshot ()) in
      Observe.Metrics.disable ();
      if jobs = 1 then
        check_int "jobs=1: everything after the first fault cancelled"
          (List.length batch - index - 1)
          (Option.value ~default:0 (List.assoc_opt "engine/cancelled" diff)))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "family"
    [
      ( "invariants",
        [
          Alcotest.test_case "runs never mutate their inherited state" `Quick
            test_inherited_untouched;
          Alcotest.test_case "pre-crash phase joins nothing" `Quick
            test_pre_crash_joins_nothing;
          Alcotest.test_case "serving a member restores the record" `Quick
            test_member_leaves_record;
          Alcotest.test_case "serving a row member restores both records" `Quick
            test_row_member_leaves_records;
          Alcotest.test_case "equal keys, equal crash states" `Quick
            test_key_stands_for_state;
          Alcotest.test_case "logged pre-crash calls name no record" `Quick
            test_logged_calls_name_no_record;
        ] );
      ( "differential",
        [
          Alcotest.test_case "registry: both recovery waves" `Slow
            test_registry_waves;
          Alcotest.test_case "faults, budgets, crash_now and oracle" `Quick
            test_fault_batches;
          Alcotest.test_case "recovery rows: raise, budget, crash_now" `Quick
            test_recovery_rows;
          Alcotest.test_case "fail-fast cancellation" `Quick test_fail_fast;
        ] );
    ]
