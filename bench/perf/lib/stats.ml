(* Order statistics shared by the measuring run and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so spreads read the same as any external
   check of the JSONL files.  A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile of a non-empty sample. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float n)) in
  a.(max 0 (min (n - 1) (rank - 1)))
