(** The persistent-memory programming API.

    Benchmarks and applications are ordinary OCaml functions that call
    these operations; each call hands one operation to the {!Executor},
    which replays it on the simulated Px86 machine.  This plays the role
    of the paper's LLVM instrumentation: every load, store, flush and
    fence is observed by the infrastructure.

    A call goes to the execution running on this domain ({!current}).
    While that execution has one thread, the call is a direct function
    call into it; once it has spawned a thread, and for {!spawn} and
    {!join} always, the call performs an OCaml effect that the
    executor's scheduler intercepts.  Both paths count, schedule and
    execute an operation identically.

    All operations must run inside {!Executor.run}; calling them outside
    raises [Effect.Unhandled]. *)

type order = Px86.Access.memorder

(** {1 Memory operations} *)

(** [store addr v] performs a plain (non-atomic) store of [size] bytes
    (default 8).  [label] names the source-level field for race reports.
    [atomic] upgrades the store to an atomic one with the given memory
    order — the fix the paper prescribes for persistency races.
    [nt] makes it a non-temporal (movnt) store: durable at the next
    fence without an explicit flush, as libpmem's [pmem_memcpy_nodrain]
    path emits. *)
val store :
  ?label:string -> ?size:int -> ?atomic:order -> ?nt:bool -> Px86.Addr.t -> int64 ->
  unit

(** Chunked non-temporal copy + [sfence] — [pmem_memcpy_persist]. *)
val memcpy_nt_persist : ?label:string -> Px86.Addr.t -> string -> unit

(** [load addr] reads [size] bytes (default 8); [atomic] makes the load
    an atomic acquire-class load. *)
val load : ?size:int -> ?atomic:order -> Px86.Addr.t -> int64

(** Locked compare-and-swap (mfence semantics on both sides). *)
val cas :
  ?label:string -> ?size:int -> Px86.Addr.t -> expected:int64 -> desired:int64 -> bool

val clflush : Px86.Addr.t -> unit
val clwb : Px86.Addr.t -> unit
val sfence : unit -> unit
val mfence : unit -> unit

(** [flush_range addr len] issues a [clwb] for every cache line touching
    [[addr, addr+len)] — the idiom PMDK's [pmem_flush] uses. *)
val flush_range : Px86.Addr.t -> int -> unit

(** [persist addr len] is [flush_range addr len] followed by [sfence],
    PMDK's [pmem_persist]. *)
val persist : Px86.Addr.t -> int -> unit

(** {1 Bulk operations}

    Chunked helpers; each 8-byte (or smaller tail) chunk is a separate
    plain store, mirroring how libc [memset]/[memcpy] tear wide copies
    (paper, section 3.2). *)

val memset : ?label:string -> Px86.Addr.t -> char -> int -> unit
val store_bytes : ?label:string -> Px86.Addr.t -> string -> unit
val load_bytes : Px86.Addr.t -> int -> string

(** {1 Allocation and roots} *)

(** Bump allocation from the persistent heap; [align] defaults to 8. *)
val alloc : ?align:int -> int -> Px86.Addr.t

(** Root slots live in cache line 0 and are written atomically and
    flushed, so they are never themselves racy.  8 slots are available. *)
val set_root : int -> Px86.Addr.t -> unit

val get_root : int -> Px86.Addr.t

(** {1 Threads} *)

val spawn : (unit -> unit) -> int
val join : int -> unit
val yield : unit -> unit
val my_tid : unit -> int

(** {1 Crash and validation} *)

(** Crash the whole machine at this point (testing hook). *)
val crash_now : unit -> 'a

(** [validating f] marks loads inside [f] as checksum-validation reads:
    races they observe are classified benign (paper, section 7.5). *)
val validating : (unit -> 'a) -> 'a

(** {1 Integer convenience wrappers} *)

val store_int : ?label:string -> ?size:int -> ?atomic:order -> Px86.Addr.t -> int -> unit
val load_int : ?size:int -> ?atomic:order -> Px86.Addr.t -> int
val cas_int : ?label:string -> ?size:int -> Px86.Addr.t -> expected:int -> desired:int -> bool

(** {1 Effect declarations (consumed by the executor)} *)

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
  | Alloc_e : int * int -> Px86.Addr.t Effect.t  (** size, align *)
  | Spawn_e : (unit -> unit) -> int Effect.t
  | Join_e : int -> unit Effect.t
  | Yield_e : unit Effect.t
  | Crash_now_e : unit Effect.t
  | Validating_e : bool -> unit Effect.t
  | My_tid_e : int Effect.t

(** {1 Direct dispatch (installed by the executor)} *)

(** How an execution takes an operation performed on its domain. *)
type dispatch = { dispatch : 'a. 'a Effect.t -> 'a }

(** The execution running on this domain, if any: {!Executor.run} sets
    it for the run's extent and restores the previous value on exit.
    With [None], every operation performs its effect. *)
val current : dispatch option Domain.DLS.key
