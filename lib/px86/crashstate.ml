module Imap = Map.Make (Int)

type origin = { store : Event.store; exec_id : int }

type index = {
  lines : origin array Imap.t;  (* line -> its byte writers, [none] if unwritten *)
  cands : origin list Imap.t;  (* [key addr size] -> candidates, oldest first *)
  written : int;  (* bytes with a writer *)
  keys : int;  (* bindings of [cands] *)
}

type t = {
  exec_id : int;
  image : Memimage.t;
  index : index;
  mutable heap_break : int;
}

(* The writer of a never-written byte, compared physically and never
   returned. *)
let none =
  {
    store =
      { Event.seq = -1; tid = -1; lclk = 0; cv = Yashme_util.Clockvec.empty; addr = -1;
        size = 0; value = 0L; access = Access.Plain; nt = false; label = None };
    exec_id = min_int;
  }

(* Stands for every line absent from the index; never written. *)
let unwritten_line = Array.make Addr.line_size none

let key addr size = (addr lsl 4) lor size

let boot () =
  {
    exec_id = -1;
    image = Memimage.create ();
    index = { lines = Imap.empty; cands = Imap.empty; written = 0; keys = 0 };
    heap_break = Addr.line_size (* keep line 0 for runtime metadata *);
  }

let set_heap_break t hb = t.heap_break <- hb

let ct_copy = Observe.Metrics.center ~units:"bytes" "px86/snapshot_copy"
let m_copies = Observe.Metrics.counter "px86/snapshot_copies"
let m_bytes = Observe.Metrics.counter "px86/snapshot_bytes"

(* The 16-byte charges are nominal (word-sized key + pointer), not a
   measured heap layout: the point is a stable, comparable magnitude,
   deterministic in the committed store history and so jobs-invariant. *)
let copy_cost t = Memimage.footprint t.image + (16 * (t.index.written + t.index.keys))

let copy t =
  let observing = Observe.Metrics.is_enabled () in
  let t0 = if observing then Observe.Metrics.now_us () else 0 in
  let c = { t with image = Memimage.copy t.image } in
  if observing then begin
    let bytes = copy_cost t in
    Observe.Metrics.incr m_copies;
    Observe.Metrics.add m_bytes bytes;
    Observe.Metrics.charge ct_copy ~units:bytes
      ~wall_us:(Observe.Metrics.now_us () - t0)
  end;
  c

let line_writers t line =
  match Imap.find line t.index.lines with w -> w | exception Not_found -> unwritten_line

(* Exec ids rise along a crash chain; [seq] restarts in each execution. *)
let newer (a : origin) (b : origin) =
  a.exec_id > b.exec_id || (a.exec_id = b.exec_id && a.store.Event.seq > b.store.Event.seq)

let find_origin t ~addr ~size =
  let writers = ref (line_writers t (Addr.line addr)) in
  let best = ref none and torn = ref false in
  for b = addr to addr + size - 1 do
    let i = b land (Addr.line_size - 1) in
    if i = 0 && b > addr then writers := line_writers t (Addr.line b);
    let o = !writers.(i) in
    if o != none then
      if !best == none then best := o
      else if o.store != !best.store then begin
        torn := true;
        if newer o !best then best := o
      end
  done;
  if !best == none then None else Some (!best, !torn)

let rec has_store s = function
  | [] -> false
  | (o : origin) :: rest -> o.store == s || has_store s rest

let oldest_first a b = if newer a b then 1 else if newer b a then -1 else 0

let find_candidates t ~addr ~size =
  match Imap.find (key addr size) t.index.cands with
  | cs -> cs
  | exception Not_found ->
      (* Distinct byte writers, oldest first.  At most [size] (<= 8) of
         them, so a list membership test beats a table. *)
      let writers = ref (line_writers t (Addr.line addr)) and acc = ref [] in
      for b = addr to addr + size - 1 do
        let i = b land (Addr.line_size - 1) in
        if i = 0 && b > addr then writers := line_writers t (Addr.line b);
        let o = !writers.(i) in
        if o != none && not (has_store o.store !acc) then acc := o :: !acc
      done;
      List.sort oldest_first !acc

let derive base ~inherited ~exec_id pers ~from ~lines ~persisted =
  if base != inherited && lines = [] && from = Persistence.committed pers then
    (* Nothing changed since [base] was cut. *)
    { base with heap_break = inherited.heap_break }
  else begin
    let image = Memimage.copy base.image in
    let ix = base.index in
    (* The line arrays this crash writes: copies of [base]'s, made at
       the first write to each line. *)
    let owned = ref Imap.empty and written = ref ix.written in
    let own line =
      match Imap.find line !owned with
      | w -> w
      | exception Not_found ->
          let w = Array.copy (line_writers base line) in
          owned := Imap.add line w !owned;
          w
    in
    Persistence.iter_committed pers ~from (fun (s : Event.store) ->
        if persisted s then begin
          let addr = s.Event.addr and size = s.Event.size in
          Memimage.write image ~addr ~size ~value:s.Event.value;
          let o = { store = s; exec_id } in
          let w = ref (own (Addr.line addr)) in
          for b = addr to addr + size - 1 do
            let i = b land (Addr.line_size - 1) in
            if i = 0 && b > addr then w := own (Addr.line b);
            if !w.(i) == none then incr written;
            !w.(i) <- o
          done
        end);
    (* A key's candidates depend only on its line's history, lower bound
       and durable stores: recompute the keys of the changed lines, each
       found in its line's history as a store starting on that line. *)
    let fresh = ref Imap.empty in
    List.iter
      (fun line ->
        List.iter
          (fun (s : Event.store) ->
            let addr = s.Event.addr and size = s.Event.size in
            let k = key addr size in
            if Addr.line addr = line && not (Imap.mem k !fresh) then begin
              let this_exec =
                List.map (fun s -> { store = s; exec_id }) (Persistence.candidates pers ~addr ~size)
              in
              let lb = Persistence.cut_lb pers line in
              let merged =
                if Persistence.latest_at_or_below pers ~addr ~size ~cut:lb <> None then this_exec
                else find_candidates inherited ~addr ~size @ this_exec
              in
              fresh := Imap.add k merged !fresh
            end)
          (Persistence.history pers line))
      lines;
    let added = Imap.fold (fun k _ n -> if Imap.mem k ix.cands then n else n + 1) !fresh 0 in
    let take_new _ x _ = Some x in
    {
      exec_id;
      image;
      index =
        {
          lines = Imap.union take_new !owned ix.lines;
          cands = Imap.union take_new !fresh ix.cands;
          written = !written;
          keys = ix.keys + added;
        };
      heap_break = inherited.heap_break;
    }
  end

let fold_origins f t acc =
  Imap.fold
    (fun line w acc ->
      let acc = ref acc in
      Array.iteri
        (fun i o -> if o != none then acc := f ((line * Addr.line_size) + i) o !acc)
        w;
      !acc)
    t.index.lines acc

let fold_candidates f t acc =
  Imap.fold (fun k cs acc -> f ~addr:(k lsr 4) ~size:(k land 15) cs acc) t.index.cands acc
