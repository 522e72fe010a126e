(* An int array indexed by tid in canonical form: no trailing zero, so
   [empty] is [[||]] and structurally equal vectors are equal arrays.
   Every function that builds a vector trims it; none mutates one. *)
type t = int array

let empty = [||]
let get cv tid = if tid >= 0 && tid < Array.length cv then Array.unsafe_get cv tid else 0

(* The length of the shortest prefix of [a] holding every nonzero
   component. *)
let canonical_length a =
  let n = ref (Array.length a) in
  while !n > 0 && Array.unsafe_get a (!n - 1) = 0 do
    decr n
  done;
  !n

let trim a =
  let n = canonical_length a in
  if n = Array.length a then a else if n = 0 then empty else Array.sub a 0 n

let set cv tid clk =
  if clk < 0 then invalid_arg "Clockvec.set: negative clock"
  else if tid < 0 then invalid_arg "Clockvec.set: negative thread id"
  else if get cv tid = clk then cv
  else if tid < Array.length cv then begin
    let a = Array.copy cv in
    a.(tid) <- clk;
    if clk = 0 then trim a else a
  end
  else begin
    let a = Array.make (tid + 1) 0 in
    Array.blit cv 0 a 0 (Array.length cv);
    a.(tid) <- clk;
    a
  end

let tick cv tid = set cv tid (get cv tid + 1)

(* A canonical [a] longer than [b] has a nonzero component past [b]'s
   end, so it cannot be below [b]. *)
let leq a b =
  let n = Array.length a in
  n <= Array.length b
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get a !i <= Array.unsafe_get b !i do
    incr i
  done;
  !i = n

(* When one side dominates, the join is that side: nothing is built. *)
let join a b =
  if leq b a then a
  else if leq a b then b
  else
    let long, short = if Array.length a >= Array.length b then (a, b) else (b, a) in
    let j = Array.copy long in
    for i = 0 to Array.length short - 1 do
      if short.(i) > j.(i) then j.(i) <- short.(i)
    done;
    j

(* Component by component, so that it stays the semantic equality
   that canonical form makes [compare a b = 0] agree with. *)
let equal a b =
  let n = max (Array.length a) (Array.length b) in
  let i = ref 0 in
  while !i < n && get a !i = get b !i do
    incr i
  done;
  !i = n
let lt a b = leq a b && not (equal a b)
let concurrent a b = (not (leq a b)) && not (leq b a)

let of_list assoc =
  List.fold_left (fun cv (tid, clk) -> set cv tid clk) empty assoc

let to_list cv =
  List.filter (fun (_, clk) -> clk <> 0) (List.init (Array.length cv) (fun tid -> (tid, cv.(tid))))

let pp ppf cv =
  let pp_entry ppf (tid, clk) = Format.fprintf ppf "%d:%d" tid clk in
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    (to_list cv)

let width = Array.length

let join_into acc ~off cv =
  for tid = 0 to Array.length cv - 1 do
    let c = Array.unsafe_get cv tid in
    if c > acc.(off + tid) then acc.(off + tid) <- c
  done

let freeze acc ~off ~len =
  let n = ref len in
  while !n > 0 && acc.(off + !n - 1) = 0 do
    decr n
  done;
  if !n = 0 then empty else Array.sub acc off !n
