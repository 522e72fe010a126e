module Imap = Map.Make (Int)

type t = int Imap.t

let empty = Imap.empty
let get cv tid = match Imap.find tid cv with c -> c | exception Not_found -> 0

let set cv tid clk =
  if clk < 0 then invalid_arg "Clockvec.set: negative clock"
  else if clk = 0 then Imap.remove tid cv
  else Imap.add tid clk cv

let tick cv tid = set cv tid (get cv tid + 1)

let leq a b = Imap.for_all (fun tid c -> c <= get b tid) a

(* When one side dominates, the join is that side: no new map. *)
let join a b =
  if leq b a then a
  else if leq a b then b
  else Imap.union (fun _ x y -> Some (max x y)) a b

let equal a b = Imap.equal Int.equal a b
let lt a b = leq a b && not (equal a b)
let concurrent a b = (not (leq a b)) && not (leq b a)

let of_list assoc =
  List.fold_left (fun cv (tid, clk) -> set cv tid clk) empty assoc

let to_list cv = Imap.bindings cv

let pp ppf cv =
  let pp_entry ppf (tid, clk) = Format.fprintf ppf "%d:%d" tid clk in
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    (to_list cv)
