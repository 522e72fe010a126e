module Clockvec = Yashme_util.Clockvec
module Rng = Yashme_util.Rng
module Metrics = Observe.Metrics

(* Storage-system effort counters: store-buffer drains, flush-buffer
   applies, write-combining persists and crash materializations, the
   last also a cost center charged with its wall time. *)
let m_sb_evictions = Metrics.counter "px86/sb_evictions"
let m_fb_applies = Metrics.counter "px86/fb_applies"
let m_nt_persists = Metrics.counter "px86/nt_persists"
let m_crashes =
  Metrics.counter ~center:"px86/crash_materialize" "px86/crash_materializations"
let h_crash_lines = Metrics.histogram "px86/crash_lines"
let s_lines = Metrics.set "coverage/lines"

type sb_policy = Eager | Random_drain of float

(* Stable textual forms for serialized witnesses (lib/corpus).  The
   float uses %.17g so [sb_policy_of_label] recovers the exact bits. *)
let sb_policy_label = function
  | Eager -> "eager"
  | Random_drain p -> Printf.sprintf "random_drain:%.17g" p

let sb_policy_of_label s =
  match s with
  | "eager" -> Some Eager
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "random_drain" -> (
          match
            float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some p -> Some (Random_drain p)
          | None -> None)
      | _ -> None)

type config = {
  sb_policy : sb_policy;
  variant : Variant.t;
  rng : Rng.t;
  observer : Observer.t;
}

type thread = {
  tid : int;
  mutable cv : Clockvec.t;  (* the clock vector as of local clock [cv_clk] *)
  mutable cv_clk : int;
  mutable lclk : int;
  sb : Store_buffer.t;
  fb : Flush_buffer.t;
  mutable pending_nt : Event.store list;
      (* committed non-temporal stores not yet fenced (WC buffers) *)
}

type t = {
  cfg : config;
  exec_id : int;
  inherited : Crashstate.t;
  threads : (int, thread) Hashtbl.t;
  mutable order : thread array;
      (* [threads] in its iteration order, which fixes the order buffers
         drain in; rebuilt when a thread registers *)
  cache : Memimage.t;  (* committed state: inherited image + committed stores *)
  pers : Persistence.t;
  mutable seq : int;  (* global cache-commit order counter *)
  mutable base : Crashstate.t;
      (* the last [Cut_all] crash state, [inherited] before the first *)
  mutable base_at : int;  (* [Persistence.committed] at [base] *)
}

type read_source = From_buffer of Event.store | From_cache of Event.store | From_inherited

let create ?inherited ~exec_id cfg =
  let inherited = match inherited with Some c -> c | None -> Crashstate.boot () in
  (* Crash states rank byte writers by execution id (Crashstate.newer). *)
  if exec_id <= inherited.Crashstate.exec_id then
    invalid_arg "Machine.create: exec_id must exceed the inherited state's";
  {
    cfg;
    exec_id;
    inherited;
    threads = Hashtbl.create 8;
    order = [||];
    cache = Memimage.copy inherited.Crashstate.image;
    pers = Persistence.create ();
    seq = 0;
    base = inherited;
    base_at = 0;
  }

let exec_id t = t.exec_id
let inherited t = t.inherited
let persistence t = t.pers
let generation t = Persistence.generation t.pers

let rec thread_index order tid i =
  if i = Array.length order then -1
  else if order.(i).tid = tid then i
  else thread_index order tid (i + 1)

let thread t tid =
  match thread_index t.order tid 0 with
  | -1 ->
      let th =
        { tid; cv = Clockvec.empty; cv_clk = 0; lclk = 0;
          sb = Store_buffer.create (); fb = Flush_buffer.create ();
          pending_nt = [] }
      in
      Hashtbl.add t.threads tid th;
      t.order <- Array.of_list (Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [] |> List.rev);
      th
  | i -> t.order.(i)

(* Ticking is lazy: a tick only advances [lclk], and the clock vector
   catches up when an event records it.  Loads, the commonest operation,
   record none, so they allocate no clock vector. *)
let cv th =
  if th.cv_clk <> th.lclk then begin
    th.cv <- Clockvec.set th.cv th.tid th.lclk;
    th.cv_clk <- th.lclk
  end;
  th.cv

let thread_cv t ~tid = cv (thread t tid)

let tick th = th.lclk <- th.lclk + 1

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* ------------------------------------------------------------------ *)
(* Store-buffer eviction                                               *)

let apply_store t (s : Event.store) =
  s.Event.seq <- next_seq t;
  Memimage.write t.cache ~addr:s.Event.addr ~size:s.Event.size ~value:s.Event.value;
  Persistence.commit_store t.pers s;
  (if s.Event.nt then
     let th = Hashtbl.find t.threads s.Event.tid in
     th.pending_nt <- s :: th.pending_nt);
  t.cfg.observer.Observer.on_store_commit s

(* A fence also drains the write-combining buffers: every committed
   non-temporal store becomes durable on its own. *)
let drain_nt t th (fence : Event.fence) =
  List.iter
    (fun (s : Event.store) ->
      Metrics.incr m_nt_persists;
      Persistence.mark_durable t.pers s;
      t.cfg.observer.Observer.on_nt_persisted s ~fence)
    (List.rev th.pending_nt);
  th.pending_nt <- []

(* Epoch persistency: a fence acts as a persist barrier for the whole
   domain — every store committed before it is persist-ordered before
   anything after it.  We model the barrier as a synthetic flush of
   every touched line at the fence's position in commit order, reported
   through [on_flush_applied] so the detector learns it like any other
   fenced flush.  The flush clock is the join of all thread clocks: the
   barrier covers commits by every thread, not just the fencing one. *)
let epoch_barrier t (fence : Event.fence) =
  let cv =
    Array.fold_left (fun acc th -> Clockvec.join acc (cv th)) Clockvec.empty t.order
  in
  List.iter
    (fun line ->
      Persistence.flush_line t.pers ~line ~seq:t.seq;
      let f =
        { Event.fseq = t.seq; ftid = fence.Event.ktid;
          flclk = fence.Event.klclk; fcv = cv;
          faddr = line * Addr.line_size; kind = Event.Clwb }
      in
      t.cfg.observer.Observer.on_flush_applied f ~fence)
    (List.sort compare (Persistence.lines t.pers))

(* [forced] drains regardless of the variant's fence semantics: clean
   shutdown and locked RMWs must empty the buffers even under
   [Fence_nop], where ordinary fences persist nothing. *)
let drain_flush_buffer ?(forced = false) t th (fence : Event.fence) =
  if forced || t.cfg.variant.Variant.fence = Variant.Fence_full then begin
    List.iter
      (fun (f : Event.flush) ->
        Metrics.incr m_fb_applies;
        Persistence.flush_line t.pers ~line:(Addr.line f.Event.faddr) ~seq:f.Event.fseq;
        t.cfg.observer.Observer.on_flush_applied f ~fence)
      (Flush_buffer.drain th.fb);
    drain_nt t th fence;
    if t.cfg.variant.Variant.persist_order = Variant.Epoch_fenced then
      epoch_barrier t fence
  end

let apply_entry t th (entry : Store_buffer.entry) =
  Metrics.incr m_sb_evictions;
  match entry with
  | Store_buffer.Store s -> apply_store t s
  | Store_buffer.Flush ({ kind = Event.Clflush; _ } as f) ->
      f.Event.fseq <- next_seq t;
      Persistence.flush_line t.pers ~line:(Addr.line f.Event.faddr) ~seq:f.Event.fseq;
      t.cfg.observer.Observer.on_clflush_commit f
  | Store_buffer.Flush ({ kind = Event.Clwb; _ } as f) -> (
      f.Event.fseq <- next_seq t;
      match t.cfg.variant.Variant.fb_apply with
      | Variant.Fb_at_fence ->
          Flush_buffer.add th.fb f;
          t.cfg.observer.Observer.on_clwb_commit f
      | Variant.Fb_immediate ->
          (* CXL-flavoured: the write-back reaches the persistence domain
             at commit, unordered with respect to any fence.  Reported as
             a clflush commit so the detector records the applied flush
             (on_clwb_commit only notes the queueing). *)
          Metrics.incr m_fb_applies;
          Persistence.flush_line t.pers ~line:(Addr.line f.Event.faddr)
            ~seq:f.Event.fseq;
          t.cfg.observer.Observer.on_clflush_commit f)
  | Store_buffer.Sfence k ->
      ignore (next_seq t);
      drain_flush_buffer t th k;
      t.cfg.observer.Observer.on_fence k

let drain_sb t th =
  while not (Store_buffer.is_empty th.sb) do
    apply_entry t th (Store_buffer.take th.sb 0)
  done

let drain_all_sb t =
  for i = 0 to Array.length t.order - 1 do
    drain_sb t t.order.(i)
  done

let rec count_nonempty order i acc =
  if i < 0 then acc
  else count_nonempty order (i - 1) (if Store_buffer.is_empty order.(i).sb then acc else acc + 1)

(* The [n]-th thread with a nonempty store buffer, counting from the end
   of [order]. *)
let rec nth_nonempty_from_end order i n =
  if Store_buffer.is_empty order.(i).sb then nth_nonempty_from_end order (i - 1) n
  else if n = 0 then order.(i)
  else nth_nonempty_from_end order (i - 1) (n - 1)

let rec random_drain t p =
  let last = Array.length t.order - 1 in
  let n = count_nonempty t.order last 0 in
  if n > 0 && Rng.chance t.cfg.rng p then begin
    let th = nth_nonempty_from_end t.order last (Rng.int t.cfg.rng n) in
    let idx =
      match t.cfg.variant.Variant.sb_drain with
      | Variant.Drain_fifo -> 0
      | Variant.Drain_tso -> Rng.pick t.cfg.rng (Store_buffer.evictable th.sb)
    in
    apply_entry t th (Store_buffer.take th.sb idx);
    random_drain t p
  end

let background t =
  match t.cfg.sb_policy with
  | Eager -> drain_all_sb t
  | Random_drain p -> random_drain t p

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)

let store ?(nt = false) t ~tid ~addr ~size ~value ~access ~label =
  let th = thread t tid in
  tick th;
  let s =
    { Event.seq = -1; tid; lclk = th.lclk; cv = cv th; addr; size; value; access; nt;
      label }
  in
  Store_buffer.push th.sb (Store_buffer.Store s)

let cache_read t th ~addr ~size ~access =
  let value = Memimage.read t.cache ~addr ~size in
  let source =
    match Persistence.newest_covering t.pers ~addr ~size with
    | Some s -> From_cache s
    | None -> From_inherited
  in
  (* Acquire loads synchronize-with the release store they read from. *)
  (if Access.is_acquire access then
     match source with
     | From_cache s when Access.is_release s.Event.access ->
         th.cv <- Clockvec.join (cv th) s.Event.cv
     | From_cache _ | From_buffer _ | From_inherited -> ());
  (value, source)

let load t ~tid ~addr ~size ~access =
  let th = thread t tid in
  tick th;
  if not t.cfg.variant.Variant.sb_bypass then begin
    (* No forwarding: every load stalls until the own buffer drains. *)
    drain_sb t th;
    cache_read t th ~addr ~size ~access
  end
  else
    match Store_buffer.forward th.sb ~addr ~size with
    | Store_buffer.Covered s -> (s.Event.value, From_buffer s)
    | Store_buffer.Partial ->
        (* Real hardware stalls partial forwarding; drain and read the cache. *)
        drain_sb t th;
        cache_read t th ~addr ~size ~access
    | Store_buffer.Miss -> cache_read t th ~addr ~size ~access

let clflush t ~tid ~addr =
  let th = thread t tid in
  tick th;
  let f =
    { Event.fseq = -1; ftid = tid; flclk = th.lclk; fcv = cv th; faddr = addr;
      kind = Event.Clflush }
  in
  Store_buffer.push th.sb (Store_buffer.Flush f)

let clwb t ~tid ~addr =
  let th = thread t tid in
  tick th;
  let f =
    { Event.fseq = -1; ftid = tid; flclk = th.lclk; fcv = cv th; faddr = addr;
      kind = Event.Clwb }
  in
  Store_buffer.push th.sb (Store_buffer.Flush f)

let sfence t ~tid =
  let th = thread t tid in
  tick th;
  let k = { Event.ktid = tid; klclk = th.lclk; kcv = cv th; kkind = Event.Sfence } in
  Store_buffer.push th.sb (Store_buffer.Sfence k)

let mfence t ~tid =
  let th = thread t tid in
  tick th;
  drain_sb t th;
  let k = { Event.ktid = tid; klclk = th.lclk; kcv = cv th; kkind = Event.Mfence } in
  drain_flush_buffer t th k;
  t.cfg.observer.Observer.on_fence k

let cas t ~tid ~addr ~size ~expected ~desired ~label =
  let th = thread t tid in
  tick th;
  (* Locked RMW: clears the store buffer and (like mfence) the flush
     buffer before taking effect.  Forced: a locked instruction drains
     even under [Fence_nop], which weakens only explicit fences. *)
  drain_sb t th;
  let k = { Event.ktid = tid; klclk = th.lclk; kcv = cv th; kkind = Event.Mfence } in
  drain_flush_buffer ~forced:true t th k;
  let observed, source = cache_read t th ~addr ~size ~access:(Access.Atomic Access.Acq_rel) in
  if observed = expected then begin
    tick th;
    let s =
      { Event.seq = -1; tid; lclk = th.lclk; cv = cv th; addr; size; value = desired;
        access = Access.Atomic Access.Acq_rel; nt = false; label }
    in
    apply_store t s;
    (true, observed, source)
  end
  else (false, observed, source)

(* ------------------------------------------------------------------ *)
(* Crashes                                                             *)

type cut_strategy = Cut_all | Cut_lowerbound | Cut_random of Rng.t

(* [Cut_random] serializes by name only: its Rng is rebuilt from the
   witness seed on decode, which preserves replay determinism because
   the scenario seed fully determined the original draws. *)
let cut_label = function
  | Cut_all -> "cut_all"
  | Cut_lowerbound -> "cut_lowerbound"
  | Cut_random _ -> "cut_random"

let cut_of_label ~seed = function
  | "cut_all" -> Some Cut_all
  | "cut_lowerbound" -> Some Cut_lowerbound
  | "cut_random" -> Some (Cut_random (Rng.create seed))
  | _ -> None

let buffered_stores t =
  Hashtbl.fold
    (fun _ th acc ->
      acc
      + List.length
          (List.filter
             (function Store_buffer.Store _ -> true | _ -> false)
             (Store_buffer.entries th.sb)))
    t.threads 0

(* The cut of [line] under [Cut_lowerbound] ([draw] = None) or
   [Cut_random]: its lower bound, or a draw among it and the later
   stores' seqs. *)
let line_cut t ~draw line =
  let lb = Persistence.cut_lb t.pers line in
  match draw with
  | None -> lb
  | Some rng ->
      let later =
        List.fold_left
          (fun acc (s : Event.store) -> if s.Event.seq > lb then s.Event.seq :: acc else acc)
          [] (Persistence.history t.pers line)
      in
      Rng.pick rng (lb :: later)

let rec drain_everything t =
  drain_all_sb t;
  let pending =
    Hashtbl.fold
      (fun _ th acc -> if Flush_buffer.is_empty th.fb then acc else th :: acc)
      t.threads []
  in
  match pending with
  | [] -> ()
  | ths ->
      List.iter
        (fun th ->
          let k =
            { Event.ktid = th.tid; klclk = th.lclk; kcv = cv th; kkind = Event.Mfence }
          in
          (* Forced: shutdown must terminate even under [Fence_nop]. *)
          drain_flush_buffer ~forced:true t th k)
        ths;
      drain_everything t

let persist_all (_ : Event.store) = true

let crash t ~strategy =
  let observing = Metrics.is_enabled () in
  let t0 = if observing then Metrics.now_us () else 0 in
  if observing then begin
    let lines = Persistence.lines t.pers in
    Metrics.observe h_crash_lines (List.length lines);
    List.iter (fun l -> Metrics.mark s_lines l) lines
  end;
  (* Store-buffer contents are volatile and vanish: do NOT drain.  The
     machine never writes the inherited state (stores go to [cache]), so
     it is still the pristine pre-run state. *)
  let cs =
    match strategy with
    | Cut_all ->
        (* Every committed store persists, and goes on persisting: the
           last [Cut_all] crash state plus the stores committed since,
           with the candidates of the lines changed since, is this
           crash's.  Before the first, every line holding a store has
           changed. *)
        let cs =
          Crashstate.derive t.base ~inherited:t.inherited ~exec_id:t.exec_id t.pers
            ~from:t.base_at ~lines:(Persistence.take_changed t.pers) ~persisted:persist_all
        in
        t.base <- cs;
        t.base_at <- Persistence.committed t.pers;
        cs
    | Cut_lowerbound | Cut_random _ ->
        (* A later flush can persist an older store under these cuts, so
           they start from the inherited state.  A store straddling two
           lines persists with the cut of its first byte's line. *)
        let draw = match strategy with Cut_random rng -> Some rng | _ -> None in
        let lines = Persistence.lines t.pers in
        let cuts = Hashtbl.create 16 in
        List.iter (fun line -> Hashtbl.replace cuts line (line_cut t ~draw line)) lines;
        Crashstate.derive t.inherited ~inherited:t.inherited ~exec_id:t.exec_id t.pers ~from:0
          ~lines ~persisted:(fun s ->
            s.Event.seq <= Hashtbl.find cuts (Addr.line s.Event.addr)
            || Persistence.is_durable_nt t.pers s)
  in
  if observing then
    Metrics.charge m_crashes ~units:0 ~wall_us:(Metrics.now_us () - t0);
  cs

let shutdown t =
  drain_everything t;
  List.iter
    (fun line -> Persistence.flush_line t.pers ~line ~seq:t.seq)
    (Persistence.lines t.pers);
  crash t ~strategy:Cut_all
