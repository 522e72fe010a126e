type origin = { store : Event.store; exec_id : int }

type t = {
  exec_id : int;
  image : Memimage.t;
  origins : (Addr.t, origin) Hashtbl.t;
  cands : (Addr.t * int, origin list) Hashtbl.t;
  mutable heap_break : int;
}

let boot () =
  {
    exec_id = -1;
    image = Memimage.create ();
    origins = Hashtbl.create 64;
    cands = Hashtbl.create 64;
    heap_break = Addr.line_size (* keep line 0 for runtime metadata *);
  }

let ct_copy = Observe.Attribution.center ~units:"bytes" "px86/snapshot_copy"
let m_copies = Observe.Metrics.counter "px86/snapshot_copies"
let m_bytes = Observe.Metrics.counter "px86/snapshot_bytes"

(* Size of what [copy] duplicates: the image's backing bytes plus a
   fixed per-entry charge for the two index tables.  Both are
   deterministic functions of the committed store history, so the
   charge is jobs-invariant.  The 16-byte entry charge is nominal
   (word-sized key + pointer), not a measured heap layout: the point is
   a stable, comparable magnitude, not allocator truth. *)
let copy_cost t =
  Memimage.footprint t.image
  + (16 * (Hashtbl.length t.origins + Hashtbl.length t.cands))

(* The [Event.store] records reachable through [origins]/[cands] are
   frozen once committed (their [seq] is assigned at cache commit, before
   they can enter a crash state), so sharing them between the copy and
   the original is safe even across domains. *)
let copy t =
  let observing =
    Observe.Attribution.is_enabled () || Observe.Metrics.is_enabled ()
  in
  let t0 = if observing then Observe.Trace.now_us () else 0 in
  let c =
    {
      exec_id = t.exec_id;
      image = Memimage.copy t.image;
      origins = Hashtbl.copy t.origins;
      cands = Hashtbl.copy t.cands;
      heap_break = t.heap_break;
    }
  in
  if observing then begin
    let bytes = copy_cost t in
    Observe.Metrics.incr m_copies;
    Observe.Metrics.add m_bytes bytes;
    Observe.Attribution.charge ct_copy ~count:1 ~units:bytes
      ~wall_us:(Observe.Trace.now_us () - t0) ()
  end;
  c

(* Newest writer among the bytes [addr + i .. addr + size - 1] and
   whether they mix writers; [best] is reused while it stays newest. *)
let rec scan_origins t ~addr ~size i best torn =
  if i >= size then match best with None -> None | Some o -> Some (o, torn)
  else
    match Hashtbl.find t.origins (addr + i) with
    | exception Not_found -> scan_origins t ~addr ~size (i + 1) best torn
    | o -> (
        match best with
        | None -> scan_origins t ~addr ~size (i + 1) (Some o) torn
        | Some b ->
            let torn = torn || b.store != o.store in
            let best = if o.store.Event.seq > b.store.Event.seq then Some o else best in
            scan_origins t ~addr ~size (i + 1) best torn)

let find_origin t ~addr ~size = scan_origins t ~addr ~size 0 None false

let rec has_seq seq = function
  | [] -> false
  | o :: rest -> o.store.Event.seq = seq || has_seq seq rest

let find_candidates t ~addr ~size =
  match Hashtbl.find t.cands (addr, size) with
  | cs -> cs
  | exception Not_found ->
      (* Distinct byte origins, oldest first.  At most [size] (<= 8) of
         them, so a list membership test beats a table. *)
      let acc = ref [] in
      for i = 0 to size - 1 do
        match Hashtbl.find t.origins (addr + i) with
        | exception Not_found -> ()
        | o ->
            if not (has_seq o.store.Event.seq !acc) then acc := o :: !acc
      done;
      List.sort (fun a b -> compare a.store.Event.seq b.store.Event.seq) !acc
