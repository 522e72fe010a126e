type t = int

let line_size = 64
let line a = a lsr 6
let line_base a = a land lnot 63
let same_line a b = line a = line b

let lines_covering a n =
  assert (n >= 1);
  let first = line a and last = line (a + n - 1) in
  let rec collect l acc = if l < first then acc else collect (l - 1) (l :: acc) in
  collect last []

let digits = "0123456789abcdef"

(* Hexadecimal digits from the last, shifting in zeros: a negative
   address prints as its 63-bit two's complement, as [%x] does. *)
let to_string a =
  let b = Bytes.make 18 'x' in
  let rec fill a i =
    Bytes.set b i digits.[a land 15];
    if a lsr 4 = 0 then i else fill (a lsr 4) (i - 1)
  in
  let i = fill a 17 - 2 in
  Bytes.set b i '0';
  Bytes.sub_string b i (18 - i)
