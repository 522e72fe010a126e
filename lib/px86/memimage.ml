type t = { mutable data : Bytes.t; mutable extent : int }

let initial_capacity = 4096

let create () = { data = Bytes.make initial_capacity '\000'; extent = 0 }

let copy t = { data = Bytes.copy t.data; extent = t.extent }

let ensure t upto =
  let cap = Bytes.length t.data in
  if upto > cap then begin
    let cap' = max upto (cap * 2) in
    let data' = Bytes.make cap' '\000' in
    Bytes.blit t.data 0 data' 0 cap;
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
  if addr + size > Bytes.length t.data then read_bytes t ~addr ~size
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

let blit_line ~src ~dst line =
  let base = line * Addr.line_size in
  ensure dst (base + Addr.line_size);
  let copy_byte i =
    let a = base + i in
    let b = if a < Bytes.length src.data then Bytes.get src.data a else '\000' in
    Bytes.set dst.data a b
  in
  for i = 0 to Addr.line_size - 1 do
    copy_byte i
  done;
  if base + Addr.line_size > dst.extent then dst.extent <- base + Addr.line_size

let extent t = t.extent

let footprint t = Bytes.length t.data
