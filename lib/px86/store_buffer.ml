type entry =
  | Store of Event.store
  | Flush of Event.flush
  | Sfence of Event.fence

(* An array-backed FIFO: [items.(0)] is the oldest entry.  Pushing and
   forwarding allocate nothing; slots past [len] hold [hole] so the
   buffer keeps no evicted entry alive. *)
type t = { mutable items : entry array; mutable len : int }

let hole =
  Sfence { Event.ktid = -1; klclk = 0; kcv = Yashme_util.Clockvec.empty; kkind = Event.Sfence }

let create () = { items = Array.make 4 hole; len = 0 }
let is_empty t = t.len = 0
let length t = t.len

let push t e =
  if t.len = Array.length t.items then begin
    let items = Array.make (2 * t.len) hole in
    Array.blit t.items 0 items 0 t.len;
    t.items <- items
  end;
  t.items.(t.len) <- e;
  t.len <- t.len + 1

let entries t = List.init t.len (Array.get t.items)

let kind_of_entry = function
  | Store _ -> Reorder.Write
  | Flush { kind = Event.Clflush; _ } -> Reorder.Clflush_k
  | Flush { kind = Event.Clwb; _ } -> Reorder.Clflushopt
  | Sfence _ -> Reorder.Sfence_k

(* Cache line of an entry; -1 for a fence, which touches none. *)
let line_of_entry = function
  | Store s -> Addr.line s.addr
  | Flush f -> Addr.line f.faddr
  | Sfence _ -> -1

(* Entry [e] may leave the buffer before an older entry [d] only when
   Table 1 does not require d-before-e order. *)
let may_overtake ~older:d ~newer:e =
  let line = line_of_entry d in
  let same_line = line >= 0 && line = line_of_entry e in
  not (Reorder.required ~earlier:(kind_of_entry d) ~later:(kind_of_entry e) ~same_line)

let rec overtakes_all t e d =
  d < 0 || (may_overtake ~older:t.items.(d) ~newer:e && overtakes_all t e (d - 1))

let evictable t =
  let rec scan i acc =
    if i < 0 then acc
    else scan (i - 1) (if overtakes_all t t.items.(i) (i - 1) then i :: acc else acc)
  in
  scan (t.len - 1) []

let take t i =
  if i < 0 || i >= t.len then invalid_arg "Store_buffer.take: index out of range";
  let e = t.items.(i) in
  Array.blit t.items (i + 1) t.items i (t.len - i - 1);
  t.len <- t.len - 1;
  t.items.(t.len) <- hole;
  e

type forwarding = Covered of Event.store | Partial | Miss

(* Newest matching store wins; scan newest-first. *)
let rec forward_from t ~addr ~size i =
  if i < 0 then Miss
  else
    match t.items.(i) with
    | Store s ->
        if Event.store_covers s addr size then Covered s
        else if Event.store_overlaps s addr size then Partial
        else forward_from t ~addr ~size (i - 1)
    | Flush _ | Sfence _ -> forward_from t ~addr ~size (i - 1)

let forward t ~addr ~size = forward_from t ~addr ~size (t.len - 1)
