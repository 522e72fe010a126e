(** Byte addresses and cache-line arithmetic.

    The x86 persistency domain moves data at cache-line granularity
    (64 bytes); all flush instructions take an address and act on its
    whole line. *)

type t = int

val line_size : int

(** [line a] is the cache-line identifier of [a] ([CacheID] in the
    paper's algorithms). *)
val line : t -> int

val line_base : t -> t
val same_line : t -> t -> bool

(** [lines_covering a n] lists the line ids touched by the byte range
    [[a, a+n)]; [n >= 1]. *)
val lines_covering : t -> int -> int list

(** [0x] and the address in lowercase hexadecimal, as [Printf]'s
    ["0x%x"] prints it. *)
val to_string : t -> string
