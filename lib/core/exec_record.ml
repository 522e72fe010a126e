module Clockvec = Yashme_util.Clockvec

type flush_entry = { fe_tid : int; fe_lclk : int }

(* Every table is an array: [stores] and [lastflush] by cache line,
   [flushmap] by commit seq.  The lines and seqs are those of the run's
   committed stores, so the arrays stay as large as the run's image and
   its commit count; they grow by doubling.  [lastflush] and [cvpre]
   are accumulators ({!Clockvec.join_into}) of [width] components each,
   line [l]'s from [l * width] on: [width] is the widest clock of a
   store the record holds, so a join of one of its stores' clocks fits
   in place, and [clear_joins] zeroes them without changing the
   record's shape. *)
type t = {
  rid : int;
  mutable stores : Px86.Event.store array array;
      (* by line: the latest store to each address of the line, in the
         order the addresses were first stored to *)
  mutable width : int;
  mutable lastflush : int array;  (* [Array.length stores * width] *)
  mutable flushmap : flush_entry list array;
  mutable cvpre : int array;  (* [width] *)
}

let create ~id =
  { rid = id; stores = [||]; width = 0; lastflush = [||]; flushmap = [||]; cvpre = [||] }

let id t = t.rid

(* [a] grown by doubling to hold index [i], new slots [fill]. *)
let cover a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Re-lay [lastflush] for [lines] lines of [width] components. *)
let relayout t ~lines ~width =
  let lastflush = Array.make (lines * width) 0 in
  for l = 0 to Array.length t.stores - 1 do
    Array.blit t.lastflush (l * t.width) lastflush (l * width) t.width
  done;
  t.lastflush <- lastflush

(* Room for clocks of [width] components. *)
let widen t width =
  if width > t.width then begin
    relayout t ~lines:(Array.length t.stores) ~width;
    let cvpre = Array.make width 0 in
    Array.blit t.cvpre 0 cvpre 0 t.width;
    t.cvpre <- cvpre;
    t.width <- width
  end

(* Room for line [line]. *)
let cover_line t line =
  if line < 0 then invalid_arg "Exec_record: negative line";
  if line >= Array.length t.stores then begin
    let stores = cover t.stores line [||] in
    relayout t ~lines:(Array.length stores) ~width:t.width;
    t.stores <- stores
  end

let stores_on t line = if line >= 0 && line < Array.length t.stores then t.stores.(line) else [||]

let rec index_of (stores : Px86.Event.store array) addr i =
  if i = Array.length stores then -1
  else if stores.(i).Px86.Event.addr = addr then i
  else index_of stores addr (i + 1)

let store_at t addr =
  if addr < 0 then None
  else
    let stores = stores_on t (Px86.Addr.line addr) in
    match index_of stores addr 0 with -1 -> None | i -> Some stores.(i)

let set_store t (s : Px86.Event.store) =
  let addr = s.Px86.Event.addr in
  if addr < 0 then invalid_arg "Exec_record.set_store: negative address";
  let line = Px86.Addr.line addr in
  widen t (Clockvec.width s.Px86.Event.cv);
  cover_line t line;
  let stores = t.stores.(line) in
  match index_of stores addr 0 with
  | -1 ->
      let n = Array.length stores in
      let wider = Array.make (n + 1) s in
      Array.blit stores 0 wider 0 n;
      t.stores.(line) <- wider
  | i -> stores.(i) <- s

let line_addrs t line =
  Array.fold_left (fun acc (s : Px86.Event.store) -> s.Px86.Event.addr :: acc) []
    (stores_on t line)

let iter_line_stores t line f = Array.iter f (stores_on t line)

let flushes_of t seq = if seq >= 0 && seq < Array.length t.flushmap then t.flushmap.(seq) else []

let add_flush t ~seq entry =
  if seq < 0 then invalid_arg "Exec_record.add_flush: negative seq";
  t.flushmap <- cover t.flushmap seq [];
  t.flushmap.(seq) <- entry :: t.flushmap.(seq)

let lastflush_at t ~line tid =
  if line >= 0 && line < Array.length t.stores && tid >= 0 && tid < t.width then
    Array.unsafe_get t.lastflush ((line * t.width) + tid)
  else 0

let lastflush t ~line =
  if line >= 0 && line < Array.length t.stores then
    Clockvec.freeze t.lastflush ~off:(line * t.width) ~len:t.width
  else Clockvec.empty

let join_lastflush t ~line cv =
  widen t (Clockvec.width cv);
  cover_line t line;
  Clockvec.join_into t.lastflush ~off:(line * t.width) cv

let cvpre_at t tid = if tid >= 0 && tid < t.width then Array.unsafe_get t.cvpre tid else 0
let cvpre t = Clockvec.freeze t.cvpre ~off:0 ~len:t.width

let join_cvpre t cv =
  widen t (Clockvec.width cv);
  Clockvec.join_into t.cvpre ~off:0 cv

let joins_empty t = Array.for_all (fun c -> c = 0) t.lastflush && Array.for_all (fun c -> c = 0) t.cvpre

let clear_joins t =
  Array.fill t.lastflush 0 (Array.length t.lastflush) 0;
  Array.fill t.cvpre 0 t.width 0
