type line_state = {
  mutable stores : Event.store list; (* newest first *)
  mutable cut_lb : int;
}

type t = {
  lines : (int, line_state) Hashtbl.t;
  durable_nt : (int, unit) Hashtbl.t;  (* seq of individually durable stores *)
  mutable log : Event.store array;  (* [log.(0 .. committed - 1)]: commit order *)
  mutable committed : int;
  mutable generation : int;  (* bumped by every change a crash can show *)
}

let create () =
  { lines = Hashtbl.create 64; durable_nt = Hashtbl.create 16; log = [||]; committed = 0;
    generation = 0 }

let generation t = t.generation
let bump t = t.generation <- t.generation + 1

let mark_durable t (s : Event.store) =
  Hashtbl.replace t.durable_nt s.Event.seq ();
  bump t

let is_durable_nt t (s : Event.store) = Hashtbl.mem t.durable_nt s.Event.seq

let get_line t line =
  match Hashtbl.find t.lines line with
  | ls -> ls
  | exception Not_found ->
      let ls = { stores = []; cut_lb = 0 } in
      Hashtbl.add t.lines line ls;
      bump t;
      ls

let append t (s : Event.store) =
  if t.committed = Array.length t.log then begin
    let log = Array.make (max 16 (2 * t.committed)) s in
    Array.blit t.log 0 log 0 t.committed;
    t.log <- log
  end;
  t.log.(t.committed) <- s;
  t.committed <- t.committed + 1

let commit_store t (s : Event.store) =
  append t s;
  bump t;
  (* A store may straddle a line boundary; register it on every line it
     touches so flushes of either line cover it. *)
  for line = Addr.line s.addr to Addr.line (s.addr + s.size - 1) do
    let ls = get_line t line in
    ls.stores <- s :: ls.stores
  done

let iter_committed t f =
  for i = 0 to t.committed - 1 do
    f t.log.(i)
  done

let flush_line t ~line ~seq =
  let ls = get_line t line in
  if seq > ls.cut_lb then begin
    ls.cut_lb <- seq;
    bump t
  end

(* The newest-first history of a line. *)
let history t line =
  match Hashtbl.find t.lines line with ls -> ls.stores | exception Not_found -> []

let line_stores t line = List.rev (history t line)

let cut_lb t line =
  match Hashtbl.find t.lines line with ls -> ls.cut_lb | exception Not_found -> 0

let lines t = Hashtbl.fold (fun line _ acc -> line :: acc) t.lines [] |> List.sort compare

(* Every store covering [addr] lives on the line of [addr] (covering
   stores touch that line by definition). *)
let covering_stores t ~addr ~size =
  List.filter (fun s -> Event.store_covers s addr size) (history t (Addr.line addr))

(* Newest covering store satisfying [ok], scanning the history in place. *)
let rec first_covering ok addr size = function
  | [] -> None
  | (s : Event.store) :: rest ->
      if Event.store_covers s addr size && ok s then Some s
      else first_covering ok addr size rest

let newest_covering t ~addr ~size =
  first_covering (fun _ -> true) addr size (history t (Addr.line addr))

let latest_at_or_below t ~addr ~size ~cut =
  first_covering
    (fun (s : Event.store) -> s.seq <= cut || is_durable_nt t s)
    addr size (history t (Addr.line addr))

let candidates t ~addr ~size =
  let newest_first = covering_stores t ~addr ~size in
  let lb = cut_lb t (Addr.line addr) in
  let durable (s : Event.store) = s.seq <= lb || is_durable_nt t s in
  let rec split acc = function
    | [] -> acc (* no definitely-durable base *)
    | (s : Event.store) :: rest ->
        if durable s then s :: acc
          (* s is the base; older stores are overwritten durably *)
        else split (s :: acc) rest
  in
  split [] newest_first
