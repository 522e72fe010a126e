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

(* A post-crash check with every argument it was made with. *)
type call =
  | Load_atomic of { exec : int; store : Px86.Event.store }
  | Load_non_atomic of {
      exec : int;
      store : Px86.Event.store;
      load_addr : Px86.Addr.t;
      load_size : int;
      load_tid : int;
      load_exec : int;
      commit : bool;
      benign : bool;
    }

type t = {
  dmode : mode;
  deadr : bool;
  dcoherence : bool;
  records : (int, Exec_record.t) Hashtbl.t;
  mutable current : Exec_record.t option;
  mutable reported : Race.t list;  (* newest first *)
  mutable logging : bool;
  mutable log : call list;  (* newest first *)
}

let create ?(mode = Prefix) ?(eadr = false) ?(coherence = true) () =
  { dmode = mode; deadr = eadr; dcoherence = coherence;
    records = Hashtbl.create 4; current = None; reported = [];
    logging = false; log = [] }

let mode t = t.dmode
let eadr t = t.deadr
let coherence t = t.dcoherence
let races t = List.rev t.reported

let log_calls t =
  t.logging <- true;
  t.log <- []

let logged t = List.rev t.log

let begin_exec t ~id =
  let r = Exec_record.create ~id in
  Hashtbl.replace t.records id r;
  t.current <- Some r;
  r

let record t ~id = Hashtbl.find_opt t.records id
let adopt t r = Hashtbl.replace t.records (Exec_record.id r) r

(* Figure 8, Evict_SB(clflush) / Evict_FB: record a flush for the latest
   store to every address on the flushed cache line, provided the store
   happens-before the flush and no happens-before-earlier flush is
   already recorded. *)
let note_flush r ~line ~flush_cv ~entry =
  List.iter
    (fun addr ->
      match Exec_record.store_at r addr with
      | None -> ()
      | Some s ->
          let store_hb_flush =
            s.Px86.Event.lclk <= Clockvec.get flush_cv s.Px86.Event.tid
          in
          let already =
            List.exists
              (fun (e : Exec_record.flush_entry) ->
                e.Exec_record.fe_lclk <= Clockvec.get flush_cv e.Exec_record.fe_tid)
              (Exec_record.flushes_of r s.Px86.Event.seq)
          in
          if store_hb_flush && not already then begin
            Metrics.incr m_flush_records;
            Exec_record.add_flush r ~seq:s.Px86.Event.seq entry
          end)
    (Exec_record.line_addrs r line)

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
   reading their stores are not race-checked. *)
let record_of t exec = Hashtbl.find_opt t.records exec

let load_atomic t ~exec ~store =
  if t.logging then t.log <- Load_atomic { exec; store } :: t.log;
  match record_of t exec with
  | None -> ()
  | Some r ->
      Metrics.incr m_atomic_loads;
      Metrics.incr m_prefix_expansions;
      let line = Px86.Addr.line store.Px86.Event.addr in
      Exec_record.join_lastflush r ~line store.Px86.Event.cv;
      Exec_record.join_cvpre r store.Px86.Event.cv

let load_non_atomic t ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit
    ~benign =
  if t.logging then
    t.log <-
      Load_non_atomic
        { exec; store; load_addr; load_size; load_tid; load_exec; commit; benign }
      :: t.log;
  match record_of t exec with
  | None -> None
  | Some r ->
  Metrics.incr (if commit then m_committed_checks else m_candidate_checks);
  let result =
    if Px86.Access.is_atomic store.Px86.Event.access then None
    else begin
      let line = Px86.Addr.line store.Px86.Event.addr in
      let lastflush = Exec_record.lastflush r ~line in
      let covered_by_coherence =
        t.dcoherence
        && begin
             Metrics.incr m_cv_comparisons;
             Clockvec.get store.Px86.Event.cv store.Px86.Event.tid
             <= Clockvec.get lastflush store.Px86.Event.tid
           end
      in
      let flush_counts (e : Exec_record.flush_entry) =
        match t.dmode with
        | Baseline -> true
        | Prefix ->
            (* Only flushes inside the smallest consistent prefix are
               mandatory; any shorter prefix omits the others (5.1). *)
            Metrics.incr m_cv_comparisons;
            e.Exec_record.fe_lclk
            <= Clockvec.get (Exec_record.cvpre r) e.Exec_record.fe_tid
      in
      let persisted =
        if t.deadr then
          (* eADR (section 7.5): the cache is in the persistence domain,
             so the store is durable once its cache commit is forced
             into every consistent prefix.  In baseline mode a committed
             store is durable outright. *)
          (match t.dmode with
          | Baseline -> true
          | Prefix ->
              Metrics.incr m_cv_comparisons;
              store.Px86.Event.lclk
              <= Clockvec.get (Exec_record.cvpre r) store.Px86.Event.tid)
        else
          List.exists flush_counts (Exec_record.flushes_of r store.Px86.Event.seq)
      in
      if covered_by_coherence || persisted then begin
        Metrics.incr
          (if covered_by_coherence then m_pruned_coherence else m_pruned_persisted);
        None
      end
      else begin
        let race =
          {
            Race.store;
            store_exec = exec;
            load_addr;
            load_size;
            load_tid;
            load_exec;
            committed = commit;
            benign;
          }
        in
        Metrics.incr (if benign then m_races_benign else m_races_raised);
        t.reported <- race :: t.reported;
        Some race
      end
    end
  in
  if commit then begin
    Metrics.incr m_prefix_expansions;
    Exec_record.join_cvpre r store.Px86.Event.cv
  end;
  result

let replay t = function
  | Load_atomic { exec; store } ->
      load_atomic t ~exec ~store;
      None
  | Load_non_atomic { exec; store; load_addr; load_size; load_tid; load_exec; commit; benign }
    ->
      load_non_atomic t ~exec ~store ~load_addr ~load_size ~load_tid ~load_exec ~commit
        ~benign
