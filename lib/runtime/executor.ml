module Rng = Yashme_util.Rng
module Machine = Px86.Machine
module Metrics = Observe.Metrics

exception Crash_signal
(** Raised into a run's threads when the machine crashes or the run
    diverges: into suspended threads by the teardown, and by every
    direct call from then on. *)

type plan =
  | Run_to_end
  | Crash_at_end
  | Crash_before_op of int
  | Crash_before_flush of int

let plan_label = function
  | Run_to_end -> "run_to_end"
  | Crash_at_end -> "crash_at_end"
  | Crash_before_op n -> Printf.sprintf "crash_before_op:%d" n
  | Crash_before_flush n -> Printf.sprintf "crash_before_flush:%d" n

(* Inverse of [plan_label]; serialized witnesses round-trip plans
   through these two functions. *)
let plan_of_label s =
  let indexed prefix k =
    let pl = String.length prefix in
    if
      String.length s > pl
      && String.sub s 0 pl = prefix
      && s.[pl] = ':'
    then
      match int_of_string_opt (String.sub s (pl + 1) (String.length s - pl - 1)) with
      | Some n when n >= 0 -> Some (k n)
      | Some _ | None -> None
    else None
  in
  match s with
  | "run_to_end" -> Some Run_to_end
  | "crash_at_end" -> Some Crash_at_end
  | _ -> (
      match indexed "crash_before_op" (fun n -> Crash_before_op n) with
      | Some _ as p -> p
      | None -> indexed "crash_before_flush" (fun n -> Crash_before_flush n))

(* Per-phase operation counters: execution ids map to the setup /
   pre-crash / post-crash (recovery) phases of a failure scenario (see
   Engine).  Resolved once per [run], so the per-op cost when metrics
   are off is the single branch inside [Metrics.incr]. *)
type phase_counters = {
  pc_loads : Metrics.cell;
  pc_stores : Metrics.cell;
  pc_cas : Metrics.cell;
  pc_flushes : Metrics.cell;
  pc_fences : Metrics.cell;
}

let phase_counters phase =
  {
    pc_loads = Metrics.counter (Printf.sprintf "executor/%s/loads" phase);
    pc_stores = Metrics.counter (Printf.sprintf "executor/%s/stores" phase);
    pc_cas = Metrics.counter (Printf.sprintf "executor/%s/cas" phase);
    pc_flushes = Metrics.counter (Printf.sprintf "executor/%s/flushes" phase);
    pc_fences = Metrics.counter (Printf.sprintf "executor/%s/fences" phase);
  }

let all_phase_counters =
  [| phase_counters "setup"; phase_counters "pre"; phase_counters "post" |]

(* Per-phase wall-clock/op attribution: one charge per [run], count 1,
   units = memory ops executed.  Counts and ops are deterministic; the
   wall column is volatile by nature (see Observe.Attribution). *)
let att_phase_centers =
  [|
    Metrics.center ~units:"ops" "phase/setup";
    Metrics.center ~units:"ops" "phase/pre";
    Metrics.center ~units:"ops" "phase/post";
  |]

let phase_of_exec_id exec_id = if exec_id <= 0 then 0 else if exec_id = 1 then 1 else 2

let m_crashes = Metrics.counter "executor/crashes"
let m_divergences = Metrics.counter "executor/divergences"
let h_ops = Metrics.histogram "executor/ops_per_exec"

type sched_policy = Round_robin | Random_sched

let sched_label = function
  | Round_robin -> "round_robin"
  | Random_sched -> "random"

let sched_of_label = function
  | "round_robin" -> Some Round_robin
  | "random" -> Some Random_sched
  | _ -> None

type outcome = Completed | Crashed | Diverged

let outcome_label = function
  | Completed -> "completed"
  | Crashed -> "crashed"
  | Diverged -> "diverged"

type result = {
  outcome : outcome;
  state : Px86.Crashstate.t;
  ops : int;
  flush_points : int;
  crashed_at_op : int option;
}

type opkind =
  | Op_mem  (** load / store / cas *)
  | Op_flushpt  (** clflush / clwb / sfence / mfence: crash-plan points *)
  | Op_meta  (** alloc / spawn / join / yield / ... *)
  | Op_crash_req  (** explicit [Pmem.crash_now] *)

(* A thread's scheduling state.  A suspended thread keeps the operation
   it performed next to its continuation, and the scheduler dispatches on
   the operation when it picks the thread: one small block per operation,
   no per-operation closures. *)
type tstate =
  | Ready : 'a Effect.t * ('a, unit) Effect.Deep.continuation -> tstate
      (** suspended at an operation, runnable *)
  | Fresh of (unit -> unit)  (** spawned, not started yet (a meta op) *)
  | Waiting of int * (unit, unit) Effect.Deep.continuation
      (** joining the thread with this id *)
  | Done

type slot = {
  mutable tstate : tstate;
  mutable validating : int;  (** [Pmem.validating] nesting depth *)
}

let new_slot _ = { tstate = Done; validating = 0 }

type state = {
  checker : Yashme.Detector.t option;
      (** the run's detector, when it can use a post-crash load's
          origin ({!Yashme.Detector.checks_upto}) *)
  check_candidates : bool;
  machine : Machine.t;
  cut : Machine.cut_strategy;
  plan : plan;
  sched : sched_policy;
  rng : Rng.t;
  exec_id : int;
  max_ops : int option;  (** fuel: scheduled operations before [Diverged] *)
  mutable deadline : float option;
      (** absolute wall-clock cutoff, pushed back by [at_flush_point] time *)
  at_flush_point : (int -> key:int * int -> ops:int -> (unit -> result) -> unit) option;
  mutable paused_s : float;  (** wall time spent inside [at_flush_point] *)
  pc : phase_counters;  (** this execution's phase counters *)
  mutable slots : slot array;
      (** indexed by tid; tids are handed out in spawn order, so
          [0 .. next_tid - 1] is also the deterministic pick order *)
  mutable next_tid : int;
  mutable rr_cursor : int;
  mutable heap_break : int;
  mutable ops : int;
  mutable fuel_used : int;  (** every scheduled op, incl. meta ops *)
  mutable flush_points : int;
  mutable crashed : bool;
  mutable diverged : bool;
  mutable crash_state : Px86.Crashstate.t option;
  mutable crashed_at_op : int option;
  mutable error : (exn * Printexc.raw_backtrace) option;
  mutable escaped : (exn * Printexc.raw_backtrace) option;
      (** raised by [at_flush_point] inside a direct call: re-raised
          once the thread has unwound *)
}

let set_state st tid s = st.slots.(tid).tstate <- s

let get_state st tid = if tid >= 0 && tid < st.next_tid then st.slots.(tid).tstate else Done

let add_thread st s =
  let tid = st.next_tid in
  if tid = Array.length st.slots then
    st.slots <- Array.append st.slots (Array.init tid new_slot);
  st.next_tid <- tid + 1;
  set_state st tid s;
  tid

(* ------------------------------------------------------------------ *)
(* Detector wiring for post-crash reads                                 *)

let same_origin (a : Px86.Crashstate.origin) (b : Px86.Crashstate.origin) =
  a.Px86.Crashstate.exec_id = b.Px86.Crashstate.exec_id
  && a.Px86.Crashstate.store.Px86.Event.seq = b.Px86.Crashstate.store.Px86.Event.seq

let check_origin st d ~tid ~addr ~size ~benign ~commit (o : Px86.Crashstate.origin) =
  let store = o.Px86.Crashstate.store in
  if commit && Px86.Access.is_release store.Px86.Event.access then
    Yashme.Detector.load_atomic d ~exec:o.Px86.Crashstate.exec_id ~store
  else
    Yashme.Detector.load_non_atomic d ~exec:o.Px86.Crashstate.exec_id ~store ~load_addr:addr
      ~load_size:size ~load_tid:tid ~load_exec:st.exec_id ~commit ~benign

(* Candidate stores the load could have read in some consistent
   execution are all checked (paper §6, random mode); only the
   committed read advances CVpre / lastflush. *)
let rec check_candidates st d ~tid ~addr ~size ~benign origin = function
  | [] -> ()
  | c :: rest ->
      if not (same_origin c origin) then
        check_origin st d ~tid ~addr ~size ~benign ~commit:false c;
      check_candidates st d ~tid ~addr ~size ~benign origin rest

let check_crash_read st ~tid ~addr ~size source =
  match st.checker, source with
  | Some d, Machine.From_inherited -> (
      let inherited = Machine.inherited st.machine in
      match Px86.Crashstate.find_origin inherited ~addr ~size with
      | None -> ()
      | Some (origin, _torn) ->
          let benign = st.slots.(tid).validating > 0 in
          if st.check_candidates then
            check_candidates st d ~tid ~addr ~size ~benign origin
              (Px86.Crashstate.find_candidates inherited ~addr ~size);
          check_origin st d ~tid ~addr ~size ~benign ~commit:true origin)
  | None, _ | Some _, (Machine.From_buffer _ | Machine.From_cache _) -> ()

(* ------------------------------------------------------------------ *)
(* Operation execution                                                  *)

let exec_store st tid (r : Pmem.store_req) =
  Metrics.incr st.pc.pc_stores;
  Machine.store ~nt:r.Pmem.s_nt st.machine ~tid ~addr:r.Pmem.s_addr
    ~size:r.Pmem.s_size ~value:r.Pmem.s_value ~access:r.Pmem.s_access
    ~label:r.Pmem.s_label

let exec_load st tid (r : Pmem.load_req) =
  Metrics.incr st.pc.pc_loads;
  let value, source =
    Machine.load st.machine ~tid ~addr:r.Pmem.l_addr ~size:r.Pmem.l_size
      ~access:r.Pmem.l_access
  in
  check_crash_read st ~tid ~addr:r.Pmem.l_addr ~size:r.Pmem.l_size source;
  value

let exec_cas st tid (r : Pmem.cas_req) =
  Metrics.incr st.pc.pc_cas;
  let ok, _observed, source =
    Machine.cas st.machine ~tid ~addr:r.Pmem.c_addr ~size:r.Pmem.c_size
      ~expected:r.Pmem.c_expected ~desired:r.Pmem.c_desired ~label:r.Pmem.c_label
  in
  check_crash_read st ~tid ~addr:r.Pmem.c_addr ~size:r.Pmem.c_size source;
  ok

let exec_flush st tid (r : Pmem.flush_req) =
  Metrics.incr st.pc.pc_flushes;
  match r.Pmem.f_kind with
  | Px86.Event.Clflush -> Machine.clflush st.machine ~tid ~addr:r.Pmem.f_addr
  | Px86.Event.Clwb -> Machine.clwb st.machine ~tid ~addr:r.Pmem.f_addr

let exec_fence st tid fk =
  Metrics.incr st.pc.pc_fences;
  match fk with
  | Px86.Event.Sfence -> Machine.sfence st.machine ~tid
  | Px86.Event.Mfence -> Machine.mfence st.machine ~tid

let exec_alloc st (size, align) =
  if size <= 0 then invalid_arg "Pmem.alloc: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Pmem.alloc: alignment must be a positive power of two";
  let base = (st.heap_break + align - 1) land lnot (align - 1) in
  st.heap_break <- base + size;
  base

(* ------------------------------------------------------------------ *)
(* Thread management                                                    *)

let finish_thread st tid =
  set_state st tid Done;
  (* Wake joiners: a woken joiner is runnable at its join. *)
  for w = 0 to st.next_tid - 1 do
    match get_state st w with
    | Waiting (target, k) when target = tid -> set_state st w (Ready (Pmem.Join_e target, k))
    | Waiting _ | Ready _ | Fresh _ | Done -> ()
  done

let kind_of : type a. a Effect.t -> opkind = function
  | Pmem.Store_e _ | Pmem.Load_e _ -> Op_mem
  (* Locked RMW has fence semantics: a crash point like any other fence
     in model-checking mode. *)
  | Pmem.Cas_e _ | Pmem.Flush_e _ | Pmem.Fence_e _ -> Op_flushpt
  | Pmem.Crash_now_e -> Op_crash_req
  | _ -> Op_meta

let kind_of_state = function
  | Ready (eff, _) -> kind_of eff
  | Fresh _ | Waiting _ | Done -> Op_meta

let start_thread st tid (fn : unit -> unit) =
  let open Effect.Deep in
  match_with fn ()
    {
      retc = (fun () -> finish_thread st tid);
      exnc =
        (fun e ->
          (match e with
          | Crash_signal -> ()
          | e ->
              (* Capture the backtrace here, at the raise site, so the
                 re-raise after the scheduling loop (and any fault
                 report built from it) points at the real frame. *)
              if st.error = None then
                st.error <- Some (e, Printexc.get_raw_backtrace ()));
          finish_thread st tid);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Pmem.Join_e target ->
              Some
                (fun (k : (a, unit) continuation) ->
                  match get_state st target with
                  | Done -> set_state st tid (Ready (eff, k))
                  | Ready _ | Fresh _ | Waiting _ -> set_state st tid (Waiting (target, k)))
          | Pmem.Store_e _ | Pmem.Load_e _ | Pmem.Cas_e _ | Pmem.Flush_e _ | Pmem.Fence_e _
          | Pmem.Alloc_e _ | Pmem.Spawn_e _ | Pmem.Yield_e | Pmem.Crash_now_e
          | Pmem.Validating_e _ | Pmem.My_tid_e ->
              Some (fun (k : (a, unit) continuation) -> set_state st tid (Ready (eff, k)))
          | _ -> None)
    }

(* The operation a thread suspended at, executed when the scheduler picks
   the thread.  An exception it raises is delivered into the performing
   thread (like a failing syscall), not into the scheduler. *)
let execute : type a. state -> int -> a Effect.t -> a =
 fun st tid eff ->
  match eff with
  | Pmem.Store_e r -> exec_store st tid r
  | Pmem.Load_e r -> exec_load st tid r
  | Pmem.Cas_e r -> exec_cas st tid r
  | Pmem.Flush_e r -> exec_flush st tid r
  | Pmem.Fence_e fk -> exec_fence st tid fk
  | Pmem.Alloc_e (size, align) -> exec_alloc st (size, align)
  | Pmem.Spawn_e fn -> add_thread st (Fresh fn)
  | Pmem.Validating_e on ->
      let slot = st.slots.(tid) in
      slot.validating <- (if on then slot.validating + 1 else max 0 (slot.validating - 1))
  | Pmem.My_tid_e -> tid
  | Pmem.Join_e _ -> ()
  | Pmem.Yield_e -> ()
  | Pmem.Crash_now_e -> ()
  | _ -> invalid_arg "Executor: unhandled effect"

let resume st tid = function
  | Ready (eff, k) -> (
      match execute st tid eff with
      | v -> Effect.Deep.continue k v
      | exception e -> Effect.Deep.discontinue k e)
  | Fresh fn -> start_thread st tid fn
  | Waiting _ | Done -> assert false

let abort st tid =
  match get_state st tid with
  | Ready (_, k) ->
      set_state st tid Done;
      Effect.Deep.discontinue k Crash_signal
  | Waiting (_, k) ->
      set_state st tid Done;
      Effect.Deep.discontinue k Crash_signal
  | Fresh _ -> set_state st tid Done
  | Done -> ()

(* ------------------------------------------------------------------ *)
(* Scheduling                                                           *)

let is_ready st tid = match get_state st tid with Ready _ | Fresh _ -> true | Waiting _ | Done -> false

(* The [n]-th ready tid at or after [from] (ascending), or -1. *)
let rec nth_ready st ~from n =
  if from >= st.next_tid then -1
  else if is_ready st from then if n = 0 then from else nth_ready st ~from:(from + 1) (n - 1)
  else nth_ready st ~from:(from + 1) n

let rec count_ready st tid acc =
  if tid >= st.next_tid then acc
  else count_ready st (tid + 1) (if is_ready st tid then acc + 1 else acc)

(* The next thread to run, or -1 when none is ready. *)
let pick_next st =
  let tid =
    match st.sched with
    | Random_sched ->
        let n = count_ready st 0 0 in
        if n = 0 then -1 else nth_ready st ~from:0 (Rng.int st.rng n)
    | Round_robin -> (
        (* First ready tid at or after the cursor, wrapping. *)
        match nth_ready st ~from:st.rr_cursor 0 with
        | -1 -> nth_ready st ~from:0 0
        | tid -> tid)
  in
  if tid >= 0 then st.rr_cursor <- tid + 1;
  tid

(* The first thread not yet done, or -1. *)
let rec first_live st tid =
  if tid >= st.next_tid then -1
  else match get_state st tid with Done -> first_live st (tid + 1) | _ -> tid

(* Tear down every thread; buffered work is lost.  An aborted thread
   may run handlers that suspend it again, so rescan from the start. *)
let rec teardown_threads st =
  match first_live st 0 with
  | -1 -> ()
  | tid ->
      abort st tid;
      teardown_threads st

(* The durable state a crash here leaves behind.  [Machine.crash]
   changes nothing the run can observe (it only keeps the state to
   extend at the machine's next crash), so the run can go on
   afterwards. *)
let crash_here st =
  Metrics.incr m_crashes;
  let cs = Machine.crash st.machine ~strategy:st.cut in
  Px86.Crashstate.set_heap_break cs st.heap_break;
  cs

let do_crash st =
  st.crashed <- true;
  st.crashed_at_op <- Some st.ops;
  st.crash_state <- Some (crash_here st);
  teardown_threads st

(* Offer flush point [st.flush_points] to the [at_flush_point] hook with
   the key of the state a crash here leaves (what [crash_here] reads
   that can change along the run: the persistence generation and the
   heap break), the run's op count and the result a [Crash_before_flush]
   run would return here.  The hook's time is not the run's: the
   wall-clock budget is pushed back by it. *)
let offer_flush_point st serve =
  let t0 = Unix.gettimeofday () in
  serve st.flush_points
    ~key:(Machine.generation st.machine, st.heap_break)
    ~ops:st.ops
    (fun () ->
      {
        outcome = Crashed;
        state = crash_here st;
        ops = st.ops;
        flush_points = st.flush_points;
        crashed_at_op = Some st.ops;
      });
  let dt = Unix.gettimeofday () -. t0 in
  st.paused_s <- st.paused_s +. dt;
  st.deadline <- Option.map (fun d -> d +. dt) st.deadline

(* A budget fired: terminate the runaway phase.  Unlike a crash this is
   not a simulated power failure — the phase is killed and the scenario
   chain stops here — but the durable state is still materialized (as a
   crash cut) so callers can inspect what the runaway left behind. *)
let do_diverge st =
  Metrics.incr m_divergences;
  st.diverged <- true;
  teardown_threads st

(* Is a budget exhausted?  Fuel counts every scheduled
   operation (meta ops included, so a yield-spin cannot dodge it) and
   is deterministic; the wall-clock budget is a last-resort valve and
   inherently run-dependent.  Budgets trip at scheduling points only: a
   loop with no [Pmem] operation in its body cannot be preempted. *)
let budget_exhausted st =
  match st.max_ops with
  | Some m when st.fuel_used >= m -> true
  | Some _ | None -> (
      match st.deadline with
      | Some d -> Unix.gettimeofday () >= d
      | None -> false)

let should_crash st kind =
  match kind with
  | Op_crash_req -> true
  | Op_meta -> false
  | Op_mem | Op_flushpt -> (
      match st.plan with
      | Run_to_end | Crash_at_end -> false
      | Crash_before_op n -> st.ops = n
      | Crash_before_flush n -> kind = Op_flushpt && st.flush_points = n)

(* The crash-plan check, the [at_flush_point] offer and the counts of
   a step about to run an operation of [kind]; false when the step
   crashed the run instead. *)
let admit st kind =
  if should_crash st kind then begin
    do_crash st;
    false
  end
  else begin
    (match (kind, st.at_flush_point) with
    | Op_flushpt, Some serve when st.error = None -> offer_flush_point st serve
    | (Op_mem | Op_flushpt | Op_meta | Op_crash_req), _ -> ());
    st.fuel_used <- st.fuel_used + 1;
    (match kind with
    | Op_mem -> st.ops <- st.ops + 1
    | Op_flushpt ->
        st.ops <- st.ops + 1;
        st.flush_points <- st.flush_points + 1
    | Op_meta | Op_crash_req -> ());
    true
  end

(* An operation of the run's only thread, called in that thread: what
   one [sched_loop] iteration does for it, in the loop's order, starting
   with the previous iteration's trailing [background].  A crash or a
   divergence raises [Crash_signal] into the thread, as the loop's
   teardown does, and so does every later operation.  An exception of
   the [at_flush_point] hook is kept for [sched_loop] to re-raise once
   the thread has unwound, so the program never sees it. *)
let direct : type a. state -> a Effect.t -> a =
 fun st eff ->
  if st.crashed || st.diverged || st.escaped <> None then raise Crash_signal
  else if st.next_tid > 1 then Effect.perform eff
  else
    match eff with
    | Pmem.Spawn_e _ | Pmem.Join_e _ -> Effect.perform eff
    | _ ->
        Machine.background st.machine;
        if budget_exhausted st then begin
          do_diverge st;
          raise Crash_signal
        end;
        (match st.sched with
        | Random_sched -> ignore (Rng.int st.rng 1)
        | Round_robin -> ());
        st.rr_cursor <- 1;
        match admit st (kind_of eff) with
        | true -> execute st 0 eff
        | false -> raise Crash_signal
        | exception e ->
            st.escaped <- Some (e, Printexc.get_raw_backtrace ());
            raise Crash_signal

let sched_loop st =
  let continue_loop = ref true in
  while !continue_loop do
    if budget_exhausted st && not (st.crashed || st.diverged) then do_diverge st;
    match pick_next st with
    | -1 -> continue_loop := false
    | tid ->
        let ts = get_state st tid in
        if admit st (kind_of_state ts) then begin
          (* Mark running before resuming so a re-suspend can overwrite. *)
          set_state st tid Done;
          resume st tid ts;
          (match st.escaped with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ());
          if not (st.crashed || st.diverged) then Machine.background st.machine
        end
  done

(* ------------------------------------------------------------------ *)

let run ?detector ?inherited ?(plan = Run_to_end) ?(sb_policy = Machine.Eager)
    ?(variant = Px86.Variant.strict_tso) ?(cut = Machine.Cut_all)
    ?(sched = Round_robin) ?(seed = 0) ?(check_candidates = true) ?max_ops
    ?max_wall_s ?observer:extra ?at_flush_point ~exec_id fn =
  let att = Metrics.is_enabled () in
  let att_t0 = if att then Metrics.now_us () else 0 in
  let rng = Rng.create seed in
  let observer =
    match detector with
    | Some d ->
        ignore (Yashme.Detector.begin_exec d ~id:exec_id);
        Yashme.Detector.observer d
    | None -> Px86.Observer.nop
  in
  let observer =
    match extra with
    | Some o -> Px86.Observer.combine observer o
    | None -> observer
  in
  let machine =
    Machine.create ?inherited ~exec_id
      { Machine.sb_policy; variant; rng = Rng.split rng; observer }
  in
  let heap_break =
    match inherited with
    | Some c -> c.Px86.Crashstate.heap_break
    | None -> Px86.Addr.line_size
  in
  (* Decided once: nothing registers a record with a running run's
     detector or starts its log. *)
  let checker =
    match detector with
    | Some d
      when Yashme.Detector.checks_upto d
             ~exec:(Machine.inherited machine).Px86.Crashstate.exec_id ->
        detector
    | Some _ | None -> None
  in
  let st =
    {
      checker;
      check_candidates;
      machine;
      cut;
      plan;
      sched;
      rng;
      exec_id;
      max_ops;
      deadline = Option.map (fun s -> Unix.gettimeofday () +. s) max_wall_s;
      at_flush_point;
      paused_s = 0.;
      pc = all_phase_counters.(phase_of_exec_id exec_id);
      slots = Array.init 4 new_slot;
      next_tid = 0;
      rr_cursor = 0;
      heap_break;
      ops = 0;
      fuel_used = 0;
      flush_points = 0;
      crashed = false;
      diverged = false;
      crash_state = None;
      crashed_at_op = None;
      error = None;
      escaped = None;
    }
  in
  ignore (add_thread st (Fresh fn));
  let outer = Domain.DLS.get Pmem.current in
  Domain.DLS.set Pmem.current
    (Some { Pmem.dispatch = (fun (type a) (eff : a Effect.t) : a -> direct st eff) });
  (match sched_loop st with
  | () -> Domain.DLS.set Pmem.current outer
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Domain.DLS.set Pmem.current outer;
      Printexc.raise_with_backtrace e bt);
  (match st.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let state, outcome =
    if st.diverged then begin
      (* The runaway was killed mid-flight: materialize durable state
         as a crash cut (buffers lost), but report [Diverged] so the
         harness never mistakes this for a planned crash. *)
      let cs = Machine.crash machine ~strategy:cut in
      Px86.Crashstate.set_heap_break cs st.heap_break;
      (cs, Diverged)
    end
    else
      match st.crash_state with
      | Some cs -> (cs, Crashed)
      | None ->
          let cs =
            match plan with
            | Crash_at_end -> Machine.crash machine ~strategy:cut
            | Run_to_end | Crash_before_op _ | Crash_before_flush _ ->
                Machine.shutdown machine
          in
          Px86.Crashstate.set_heap_break cs st.heap_break;
          (cs, Completed)
  in
  Metrics.observe h_ops st.ops;
  if att then
    Metrics.charge att_phase_centers.(phase_of_exec_id exec_id) ~units:st.ops
      ~wall_us:
        (Metrics.now_us () - att_t0 - int_of_float (st.paused_s *. 1e6));
  { outcome; state; ops = st.ops; flush_points = st.flush_points;
    crashed_at_op = st.crashed_at_op }
