module Clockvec = Yashme_util.Clockvec
module Metrics = Observe.Metrics

(* Exploration-effort counters (paper Tables 4-5: counts and costs).
   All of them accumulate per-scenario detector work, so their merged
   totals are identical for every engine job count.  The two hot paths,
   clock-vector comparisons and prefix expansions, also show as cost
   centers (the charge is the occurrence count; wall time is attributed
   at phase granularity by the executor).  Expansions and pruned checks
   also count per program (crash-space coverage). *)
let m_candidate_checks = Metrics.counter "detector/candidate_checks"
let m_committed_checks = Metrics.counter "detector/committed_checks"
let m_atomic_loads = Metrics.counter "detector/atomic_loads"

let m_cv_comparisons =
  Metrics.counter ~center:"detector/cv_compare" "detector/cv_comparisons"

let m_prefix_expansions =
  Metrics.counter ~center:"detector/prefix_expansion" ~per_program:true
    "detector/prefix_expansions"

let m_flush_records = Metrics.counter "detector/flush_records"
let m_races_raised = Metrics.counter "detector/races_raised"
let m_races_benign = Metrics.counter "detector/races_benign"
let m_pruned_coherence = Metrics.counter ~per_program:true "detector/pruned_coherence"
let m_pruned_persisted = Metrics.counter ~per_program:true "detector/pruned_persisted"

type mode = Prefix | Baseline

(* The call log: one row of [stride] ints and one store per call,
   appended in call order.  A row holds the call's execution, load
   address, load size and load execution, then its flags and load tid
   packed in one int.  Rows are written once: a [log] handed out reads
   the first [n] rows of the arrays it was handed, and later calls
   write past them or into fresh arrays. *)
let stride = 5
let f_atomic = 1 (* a [load_atomic] call; else [load_non_atomic] *)
let f_commit = 2
let f_benign = 4
let tid_shift = 3

type log = { ints : int array; stores : Px86.Event.store array; n : int }

type t = {
  dmode : mode;
  deadr : bool;
  dcoherence : bool;
  mutable records : Exec_record.t list;
      (* at most one per execution id; a scenario registers at most 3 *)
  mutable current : Exec_record.t option;
  mutable reported : Race.t list;  (* newest first *)
  mutable logging : bool;
  mutable log_ints : int array;
  mutable log_stores : Px86.Event.store array;
  mutable log_n : int;
}

let create ?(mode = Prefix) ?(eadr = false) ?(coherence = true) () =
  { dmode = mode; deadr = eadr; dcoherence = coherence; records = []; current = None;
    reported = []; logging = false; log_ints = [||]; log_stores = [||]; log_n = 0 }

let mode t = t.dmode
let eadr t = t.deadr
let coherence t = t.dcoherence
let races t = List.rev t.reported

let log_calls t =
  t.logging <- true;
  t.log_ints <- [||];
  t.log_stores <- [||];
  t.log_n <- 0

let logged t = { ints = t.log_ints; stores = t.log_stores; n = t.log_n }
let log_length log = log.n

let append t ~flags ~exec ~(store : Px86.Event.store) ~load_addr ~load_size ~load_tid ~load_exec =
  let n = t.log_n in
  if n = Array.length t.log_stores then begin
    let cap = max 16 (2 * n) in
    let ints = Array.make (cap * stride) 0 and stores = Array.make cap store in
    Array.blit t.log_ints 0 ints 0 (n * stride);
    Array.blit t.log_stores 0 stores 0 n;
    t.log_ints <- ints;
    t.log_stores <- stores
  end;
  let ints = t.log_ints and b = n * stride in
  ints.(b) <- exec;
  ints.(b + 1) <- load_addr;
  ints.(b + 2) <- load_size;
  ints.(b + 3) <- load_exec;
  ints.(b + 4) <- flags lor (load_tid lsl tid_shift);
  t.log_stores.(n) <- store;
  t.log_n <- n + 1

let without id records = List.filter (fun r -> Exec_record.id r <> id) records

let register t r = t.records <- r :: without (Exec_record.id r) t.records

let begin_exec t ~id =
  let r = Exec_record.create ~id in
  register t r;
  t.current <- Some r;
  r

let record t ~id = List.find_opt (fun r -> Exec_record.id r = id) t.records
let adopt = register

(* Figure 8, Evict_SB(clflush) / Evict_FB: record a flush for the latest
   store to every address on the flushed cache line, provided the store
   happens-before the flush and no happens-before-earlier flush is
   already recorded. *)
let rec hb_flushed flush_cv = function
  | [] -> false
  | (e : Exec_record.flush_entry) :: rest ->
      e.Exec_record.fe_lclk <= Clockvec.get flush_cv e.Exec_record.fe_tid
      || hb_flushed flush_cv rest

let note_flush r ~line ~flush_cv ~entry =
  Exec_record.iter_line_stores r line (fun (s : Px86.Event.store) ->
      let store_hb_flush = s.Px86.Event.lclk <= Clockvec.get flush_cv s.Px86.Event.tid in
      if store_hb_flush && not (hb_flushed flush_cv (Exec_record.flushes_of r s.Px86.Event.seq))
      then begin
        Metrics.incr m_flush_records;
        Exec_record.add_flush r ~seq:s.Px86.Event.seq entry
      end)

let observer t =
  {
    Px86.Observer.on_store_commit =
      (fun s -> match t.current with Some r -> Exec_record.set_store r s | None -> ());
    on_clflush_commit =
      (fun f ->
        match t.current with
        | Some r ->
            note_flush r
              ~line:(Px86.Addr.line f.Px86.Event.faddr)
              ~flush_cv:f.Px86.Event.fcv
              ~entry:
                {
                  Exec_record.fe_tid = f.Px86.Event.ftid;
                  fe_lclk = f.Px86.Event.flclk;
                }
        | None -> ());
    on_clwb_commit = (fun _ -> ());
    on_flush_applied =
      (fun f ~fence ->
        match t.current with
        | Some r ->
            note_flush r
              ~line:(Px86.Addr.line f.Px86.Event.faddr)
              ~flush_cv:f.Px86.Event.fcv
              ~entry:
                {
                  Exec_record.fe_tid = fence.Px86.Event.ktid;
                  fe_lclk = fence.Px86.Event.klclk;
                }
        | None -> ());
    on_nt_persisted =
      (fun st ~fence ->
        match t.current with
        | Some r ->
            (* A fenced movnt store is durable on its own: record the
               fence as its flush (no other store on the line is
               affected). *)
            Exec_record.add_flush r ~seq:st.Px86.Event.seq
              {
                Exec_record.fe_tid = fence.Px86.Event.ktid;
                fe_lclk = fence.Px86.Event.klclk;
              }
        | None -> ());
    on_fence = (fun _ -> ());
  }

(* Executions never registered with the detector (e.g. a clean setup
   phase that shut down with everything persisted) are trusted: loads
   reading their stores are not race-checked.  [unregistered] stands
   for them, so that a lookup builds no option. *)
let unregistered = Exec_record.create ~id:min_int

let rec record_of exec = function
  | [] -> unregistered
  | r :: rest -> if Exec_record.id r = exec then r else record_of exec rest

let load_atomic t ~exec ~store =
  if t.logging then
    append t ~flags:f_atomic ~exec ~store ~load_addr:0 ~load_size:0 ~load_tid:0 ~load_exec:0;
  let r = record_of exec t.records in
  if r != unregistered then begin
    Metrics.incr m_atomic_loads;
    Metrics.incr m_prefix_expansions;
    let line = Px86.Addr.line store.Px86.Event.addr in
    Exec_record.join_lastflush r ~line store.Px86.Event.cv;
    Exec_record.join_cvpre r store.Px86.Event.cv
  end

(* Prefix mode: only flushes inside the smallest consistent prefix are
   mandatory; any shorter prefix omits the others (5.1).  One clock
   comparison per entry looked at. *)
let rec flushed_in_prefix r = function
  | [] -> false
  | (e : Exec_record.flush_entry) :: rest ->
      Metrics.incr m_cv_comparisons;
      e.Exec_record.fe_lclk <= Exec_record.cvpre_at r e.Exec_record.fe_tid
      || flushed_in_prefix r rest

let persisted t r (store : Px86.Event.store) =
  if t.deadr then
    (* eADR (section 7.5): the cache is in the persistence domain, so
       the store is durable once its cache commit is forced into every
       consistent prefix.  In baseline mode a committed store is
       durable outright. *)
    match t.dmode with
    | Baseline -> true
    | Prefix ->
        Metrics.incr m_cv_comparisons;
        store.Px86.Event.lclk <= Exec_record.cvpre_at r store.Px86.Event.tid
  else
    match (t.dmode, Exec_record.flushes_of r store.Px86.Event.seq) with
    | Baseline, [] -> false
    | Baseline, _ :: _ -> true
    | Prefix, flushes -> flushed_in_prefix r flushes

(* The check proper, against a registered record: whether it reported
   a race. *)
let check_non_atomic t r ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit
    ~benign =
  Metrics.incr (if commit then m_committed_checks else m_candidate_checks);
  let raced =
    (not (Px86.Access.is_atomic store.Px86.Event.access))
    &&
    let line = Px86.Addr.line store.Px86.Event.addr in
    let covered_by_coherence =
      t.dcoherence
      && begin
           Metrics.incr m_cv_comparisons;
           Clockvec.get store.Px86.Event.cv store.Px86.Event.tid
           <= Exec_record.lastflush_at r ~line store.Px86.Event.tid
         end
    in
    let persisted = persisted t r store in
    if covered_by_coherence || persisted then begin
      Metrics.incr (if covered_by_coherence then m_pruned_coherence else m_pruned_persisted);
      false
    end
    else begin
      Metrics.incr (if benign then m_races_benign else m_races_raised);
      t.reported <-
        { Race.store; store_exec = exec; load_addr; load_size; load_tid; load_exec;
          committed = commit; benign }
        :: t.reported;
      true
    end
  in
  if commit then begin
    Metrics.incr m_prefix_expansions;
    Exec_record.join_cvpre r store.Px86.Event.cv
  end;
  raced

(* [load_non_atomic], telling whether it reported a race. *)
let non_atomic t ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit ~benign =
  if t.logging then
    append t
      ~flags:((if commit then f_commit else 0) lor if benign then f_benign else 0)
      ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec;
  let r = record_of exec t.records in
  r != unregistered
  && check_non_atomic t r ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit
       ~benign

let load_non_atomic t ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit
    ~benign =
  ignore
    (non_atomic t ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit ~benign)

(* Call [i] of [log], made again: whether it reported a race. *)
let replay_at t log i =
  let b = i * stride and store = log.stores.(i) in
  let exec = log.ints.(b) and packed = log.ints.(b + 4) in
  if packed land f_atomic <> 0 then begin
    load_atomic t ~exec ~store;
    false
  end
  else
    non_atomic t ~exec ~store ~load_addr:log.ints.(b + 1) ~load_size:log.ints.(b + 2)
      ~load_tid:(packed asr tid_shift) ~load_exec:log.ints.(b + 3)
      ~commit:(packed land f_commit <> 0) ~benign:(packed land f_benign <> 0)

let replay t log =
  for i = 0 to log.n - 1 do
    ignore (replay_at t log i)
  done

let replay_call t log i =
  if i < 0 || i >= log.n then invalid_arg "Detector.replay_call: no such call";
  if replay_at t log i then match t.reported with r :: _ -> Some r | [] -> None else None
