(* SplitMix64: tiny, fast, reproducible across OCaml versions (unlike
   [Random], whose algorithm changed between releases). *)

(* The 64-bit state lives unboxed in 8 bytes, so a draw allocates
   nothing (a [mutable state : int64] field boxes every update). *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 state;
  mix state

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))
let copy = Bytes.copy
let split t = of_state (mix (next t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the conversion to a 63-bit native int never wraps
     negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let chance t p = float t < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | items -> List.nth items (int t (List.length items))

let shuffle t items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
