type order = Px86.Access.memorder

type store_req = {
  s_addr : Px86.Addr.t;
  s_size : int;
  s_value : int64;
  s_access : Px86.Access.t;
  s_nt : bool;
  s_label : string option;
}

type load_req = { l_addr : Px86.Addr.t; l_size : int; l_access : Px86.Access.t }

type cas_req = {
  c_addr : Px86.Addr.t;
  c_size : int;
  c_expected : int64;
  c_desired : int64;
  c_label : string option;
}

type flush_req = { f_addr : Px86.Addr.t; f_kind : Px86.Event.flush_kind }

type _ Effect.t +=
  | Store_e : store_req -> unit Effect.t
  | Load_e : load_req -> int64 Effect.t
  | Cas_e : cas_req -> bool Effect.t
  | Flush_e : flush_req -> unit Effect.t
  | Fence_e : Px86.Event.fence_kind -> unit Effect.t
  | Alloc_e : int * int -> Px86.Addr.t Effect.t
  | Spawn_e : (unit -> unit) -> int Effect.t
  | Join_e : int -> unit Effect.t
  | Yield_e : unit Effect.t
  | Crash_now_e : unit Effect.t
  | Validating_e : bool -> unit Effect.t
  | My_tid_e : int Effect.t

type dispatch = { dispatch : 'a. 'a Effect.t -> 'a }

let current : dispatch option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let perform : type a. a Effect.t -> a =
 fun eff ->
  match Domain.DLS.get current with
  | Some d -> d.dispatch eff
  | None -> Effect.perform eff

let access_of = function
  | None -> Px86.Access.Plain
  | Some o -> Px86.Access.Atomic o

let store ?label ?(size = 8) ?atomic ?(nt = false) addr value =
  perform
    (Store_e
       { s_addr = addr; s_size = size; s_value = value; s_access = access_of atomic;
         s_nt = nt; s_label = label })

let load ?(size = 8) ?atomic addr =
  perform (Load_e { l_addr = addr; l_size = size; l_access = access_of atomic })

let cas ?label ?(size = 8) addr ~expected ~desired =
  perform
    (Cas_e
       { c_addr = addr; c_size = size; c_expected = expected; c_desired = desired;
         c_label = label })

let clflush addr = perform (Flush_e { f_addr = addr; f_kind = Px86.Event.Clflush })
let clwb addr = perform (Flush_e { f_addr = addr; f_kind = Px86.Event.Clwb })
let sfence () = perform (Fence_e Px86.Event.Sfence)
let mfence () = perform (Fence_e Px86.Event.Mfence)

let flush_range addr len =
  if len > 0 then
    List.iter
      (fun line -> clwb (line * Px86.Addr.line_size))
      (Px86.Addr.lines_covering addr len)

let persist addr len =
  flush_range addr len;
  sfence ()

let memset ?label addr c n =
  let byte = Int64.of_int (Char.code c) in
  let word =
    List.fold_left
      (fun acc i -> Int64.logor acc (Int64.shift_left byte (8 * i)))
      0L [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let rec go off =
    if off < n then begin
      let chunk = min 8 (n - off) in
      let v = if chunk = 8 then word else Int64.logand word (Int64.sub (Int64.shift_left 1L (8 * chunk)) 1L) in
      store ?label ~size:chunk (addr + off) v;
      go (off + chunk)
    end
  in
  go 0

let store_bytes ?label addr s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let chunk = min 8 (n - off) in
      let v = ref 0L in
      for i = chunk - 1 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
      done;
      store ?label ~size:chunk (addr + off) !v;
      go (off + chunk)
    end
  in
  go 0

let load_bytes addr n =
  let buf = Buffer.create n in
  let rec go off =
    if off < n then begin
      let chunk = min 8 (n - off) in
      let v = load ~size:chunk (addr + off) in
      for i = 0 to chunk - 1 do
        Buffer.add_char buf
          (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
      done;
      go (off + chunk)
    end
  in
  go 0;
  Buffer.contents buf

let memcpy_nt_persist ?label addr s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let chunk = min 8 (n - off) in
      let v = ref 0L in
      for i = chunk - 1 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
      done;
      store ?label ~size:chunk ~nt:true (addr + off) !v;
      go (off + chunk)
    end
  in
  go 0;
  sfence ()

let alloc ?(align = 8) size = perform (Alloc_e (size, align))

let root_addr slot =
  if slot < 0 || slot > 7 then invalid_arg "Pmem root slot must be in 0..7";
  slot * 8

let set_root slot addr =
  store ~label:"__root" ~atomic:Px86.Access.Seq_cst (root_addr slot) (Int64.of_int addr);
  clflush (root_addr slot);
  mfence ()

let get_root slot =
  Int64.to_int (load ~atomic:Px86.Access.Seq_cst (root_addr slot))

let spawn fn = perform (Spawn_e fn)
let join tid = perform (Join_e tid)
let yield () = perform Yield_e
let my_tid () = perform My_tid_e

let crash_now () =
  perform Crash_now_e;
  (* The executor never resumes past a crash. *)
  assert false

let validating f =
  perform (Validating_e true);
  match f () with
  | v ->
      perform (Validating_e false);
      v
  | exception e ->
      perform (Validating_e false);
      raise e

let store_int ?label ?size ?atomic addr v = store ?label ?size ?atomic addr (Int64.of_int v)
let load_int ?size ?atomic addr = Int64.to_int (load ?size ?atomic addr)

let cas_int ?label ?size addr ~expected ~desired =
  cas ?label ?size addr ~expected:(Int64.of_int expected) ~desired:(Int64.of_int desired)
