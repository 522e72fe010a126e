(** A growable byte image of (persistent or cached) memory.

    Values are little-endian; reads and writes may span cache lines.
    Unwritten bytes read as zero, matching zero-initialized persistent
    pools. *)

type t

val create : unit -> t

(** An image that shares no bytes with [t]: it duplicates [t]'s written
    extent rounded up to a cache line, not its {!footprint}, so a copy
    costs at most the extent. *)
val copy : t -> t

(** [read t ~addr ~size] reads [size] bytes (1..8) little-endian. *)
val read : t -> addr:Addr.t -> size:int -> int64

(** [write t ~addr ~size ~value] writes the low [size] bytes of [value]. *)
val write : t -> addr:Addr.t -> size:int -> value:int64 -> unit

(** Highest written address + 1 (0 for a fresh image). *)
val extent : t -> int

(** Nominal capacity in bytes (>= {!extent}): 4,096, doubled — or raised
    to the write's end, if that is more — whenever a write passes it, so
    two equal write sequences have equal footprints.  The snapshot-cost
    accounting unit.  The backing bytes follow the extent instead, so
    {!copy} duplicates less than this. *)
val footprint : t -> int
