(** A store performed the way an optimizing backend would — torn — so a
    program can observe a mixed value after a crash (Figure 1: gcc
    ARM64 emits a pair of 32-bit stores for a 64-bit store, and the
    post-crash execution can print [0x12345678]).  The torn-store demo
    and bench's Figure 1 section use it. *)

(** [store_paired addr v] writes [v] as two non-atomic 32-bit halves,
    low half first — the gcc-ARM64 lowering of a 64-bit store. *)
val store_paired : ?label:string -> Px86.Addr.t -> int64 -> unit
