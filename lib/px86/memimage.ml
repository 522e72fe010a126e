(* [data] holds the written extent rounded up to a cache line, and grows
   by doubling; bytes past it read as zero.  [capacity] is the nominal
   size the image reports as its footprint: 4,096 bytes, doubled (or
   raised to the write's end) when a write passes it. *)
type t = { mutable data : Bytes.t; mutable extent : int; mutable capacity : int }

let initial_capacity = 4096

let create () = { data = Bytes.empty; extent = 0; capacity = initial_capacity }

let round_to_line n = (n + Addr.line_size - 1) land lnot (Addr.line_size - 1)

let copy t =
  { data = Bytes.sub t.data 0 (round_to_line t.extent); extent = t.extent; capacity = t.capacity }

let ensure t upto =
  if upto > t.capacity then t.capacity <- max upto (t.capacity * 2);
  let len = Bytes.length t.data in
  if upto > len then begin
    let data' = Bytes.make (max (round_to_line upto) (len * 2)) '\000' in
    Bytes.blit t.data 0 data' 0 len;
    t.data <- data'
  end

let check_size size =
  if size < 1 || size > 8 then invalid_arg "Memimage: size must be in 1..8"

(* Little-endian byte-at-a-time access: the slow path for sizes without
   a [Bytes] accessor and for reads that run past the backing bytes. *)
let read_bytes t ~addr ~size =
  let v = ref 0L in
  for i = size - 1 downto 0 do
    let b =
      if addr + i < Bytes.length t.data then Char.code (Bytes.get t.data (addr + i))
      else 0
    in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let read t ~addr ~size =
  check_size size;
  if addr < 0 then invalid_arg "Memimage.read: negative address";
  let len = Bytes.length t.data in
  if addr + size > len then if addr >= len then 0L else read_bytes t ~addr ~size
  else
    match size with
    | 8 -> Bytes.get_int64_le t.data addr
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data addr)) 0xFFFF_FFFFL
    | 2 -> Int64.of_int (Bytes.get_uint16_le t.data addr)
    | 1 -> Int64.of_int (Bytes.get_uint8 t.data addr)
    | _ -> read_bytes t ~addr ~size

let write t ~addr ~size ~value =
  check_size size;
  if addr < 0 then invalid_arg "Memimage.write: negative address";
  ensure t (addr + size);
  (match size with
  | 8 -> Bytes.set_int64_le t.data addr value
  | 4 -> Bytes.set_int32_le t.data addr (Int64.to_int32 value)
  | 2 -> Bytes.set_uint16_le t.data addr (Int64.to_int value land 0xFFFF)
  | 1 -> Bytes.set_uint8 t.data addr (Int64.to_int value land 0xFF)
  | _ ->
      for i = 0 to size - 1 do
        let b = Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL) in
        Bytes.set t.data (addr + i) (Char.chr b)
      done);
  if addr + size > t.extent then t.extent <- addr + size

let extent t = t.extent

let footprint t = t.capacity
