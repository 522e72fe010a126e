type line_state = {
  mutable stores : Event.store list; (* newest first *)
  mutable cut_lb : int;
}

(* Line states are kept by line: in [by_line], an array grown by
   doubling to the line of each committed store (a line the machine
   wrote into its image), or, for a line flushed past its end before
   any store landed there, in [far].  Growing [by_line] moves the [far]
   lines it now covers into it.  So a probe of a line is a bounds check
   and an array read: a miss raises nothing and a hit allocates
   nothing. *)
type t = {
  mutable by_line : line_state array;  (* [absent] where no line state *)
  far : (int, line_state) Hashtbl.t;
  durable_nt : (int, unit) Hashtbl.t;  (* seq of individually durable stores *)
  mutable log : Event.store array;  (* [log.(0 .. committed - 1)]: commit order *)
  mutable committed : int;
  mutable generation : int;  (* bumped by every change a crash can show *)
}

(* Stands for every line without a state; never mutated. *)
let absent = { stores = []; cut_lb = 0 }

let create () =
  { by_line = [||]; far = Hashtbl.create 1; durable_nt = Hashtbl.create 16; log = [||];
    committed = 0; generation = 0 }

let generation t = t.generation
let bump t = t.generation <- t.generation + 1

let mark_durable t (s : Event.store) =
  Hashtbl.replace t.durable_nt s.Event.seq ();
  bump t

let is_durable_nt t (s : Event.store) = Hashtbl.mem t.durable_nt s.Event.seq

let find t line =
  if line >= 0 && line < Array.length t.by_line then Array.unsafe_get t.by_line line
  else if Hashtbl.length t.far > 0 && Hashtbl.mem t.far line then Hashtbl.find t.far line
  else absent

(* [by_line] grown to hold [line], taking over the [far] lines it now
   covers. *)
let cover t line =
  let by_line = Array.make (max (line + 1) (2 * Array.length t.by_line)) absent in
  Array.blit t.by_line 0 by_line 0 (Array.length t.by_line);
  t.by_line <- by_line;
  if Hashtbl.length t.far > 0 then
    Hashtbl.filter_map_inplace
      (fun l ls ->
        if l < Array.length by_line then begin
          by_line.(l) <- ls;
          None
        end
        else Some ls)
      t.far

(* [line]'s state, made if it has none; [by_line] covers [line] first
   when [grow]. *)
let get_line t ~grow line =
  if grow && line >= Array.length t.by_line then cover t line;
  match find t line with
  | ls when ls != absent -> ls
  | _ ->
      let ls = { stores = []; cut_lb = 0 } in
      if line >= 0 && line < Array.length t.by_line then t.by_line.(line) <- ls
      else Hashtbl.replace t.far line ls;
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
    let ls = get_line t ~grow:true line in
    ls.stores <- s :: ls.stores
  done

let iter_committed t f =
  for i = 0 to t.committed - 1 do
    f t.log.(i)
  done

let flush_line t ~line ~seq =
  let ls = get_line t ~grow:false line in
  if seq > ls.cut_lb then begin
    ls.cut_lb <- seq;
    bump t
  end

(* The newest-first history of a line. *)
let history t line = (find t line).stores
let line_stores t line = List.rev (history t line)
let cut_lb t line = (find t line).cut_lb

let lines t =
  let far = List.sort compare (Hashtbl.fold (fun line _ acc -> line :: acc) t.far []) in
  let rec collect line acc =
    if line < 0 then acc
    else collect (line - 1) (if t.by_line.(line) != absent then line :: acc else acc)
  in
  collect (Array.length t.by_line - 1) far

(* Every store covering [addr] lives on the line of [addr] (covering
   stores touch that line by definition). *)
let covering_stores t ~addr ~size =
  List.filter (fun s -> Event.store_covers s addr size) (history t (Addr.line addr))

(* The newest covering store, scanning the history in place. *)
let rec first_covering addr size = function
  | [] -> None
  | (s : Event.store) :: rest ->
      if Event.store_covers s addr size then Some s else first_covering addr size rest

let newest_covering t ~addr ~size = first_covering addr size (history t (Addr.line addr))

let rec first_durable t addr size cut = function
  | [] -> None
  | (s : Event.store) :: rest ->
      if Event.store_covers s addr size && (s.seq <= cut || is_durable_nt t s) then Some s
      else first_durable t addr size cut rest

let latest_at_or_below t ~addr ~size ~cut =
  first_durable t addr size cut (history t (Addr.line addr))

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
