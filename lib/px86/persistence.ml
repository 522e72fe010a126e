type line_state = {
  mutable stores : Event.store list; (* newest first *)
  mutable cut_lb : int;
  mutable listed : bool;  (* in [t.changed] *)
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
  mutable changed : int list;  (* lines whose candidates may differ since [take_changed] *)
}

(* Stands for every line without a state; never mutated. *)
let absent = { stores = []; cut_lb = 0; listed = false }

let create () =
  { by_line = [||]; far = Hashtbl.create 1; durable_nt = Hashtbl.create 16; log = [||];
    committed = 0; generation = 0; changed = [] }

let generation t = t.generation
let bump t = t.generation <- t.generation + 1
let committed t = t.committed

let find t line =
  if line >= 0 && line < Array.length t.by_line then Array.unsafe_get t.by_line line
  else if Hashtbl.length t.far > 0 && Hashtbl.mem t.far line then Hashtbl.find t.far line
  else absent

let touch t line ls =
  if not ls.listed && ls != absent then begin
    ls.listed <- true;
    t.changed <- line :: t.changed
  end

let take_changed t =
  let lines = t.changed in
  List.iter (fun line -> (find t line).listed <- false) lines;
  t.changed <- [];
  lines

let mark_durable t (s : Event.store) =
  Hashtbl.replace t.durable_nt s.Event.seq ();
  (* [s] is in the history of every line it touches. *)
  for line = Addr.line s.addr to Addr.line (s.addr + s.size - 1) do
    touch t line (find t line)
  done;
  bump t

let is_durable_nt t (s : Event.store) = Hashtbl.mem t.durable_nt s.Event.seq

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
      let ls = { stores = []; cut_lb = 0; listed = false } in
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
    ls.stores <- s :: ls.stores;
    touch t line ls
  done

let iter_committed t ~from f =
  for i = from to t.committed - 1 do
    f t.log.(i)
  done

let flush_line t ~line ~seq =
  let ls = get_line t ~grow:false line in
  if seq > ls.cut_lb then begin
    ls.cut_lb <- seq;
    touch t line ls;
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

(* Every store covering [addr] lives on the line of [addr] (covering
   stores touch that line by definition).  The history is scanned newest
   first up to the first durable covering store, so the list built holds
   only the candidates. *)
let candidates t ~addr ~size =
  let lb = cut_lb t (Addr.line addr) in
  let rec scan acc = function
    | [] -> acc (* no definitely-durable base *)
    | (s : Event.store) :: rest ->
        if not (Event.store_covers s addr size) then scan acc rest
        else if s.seq <= lb || is_durable_nt t s then s :: acc
          (* s is the base; older stores are overwritten durably *)
        else scan (s :: acc) rest
  in
  scan [] (history t (Addr.line addr))
