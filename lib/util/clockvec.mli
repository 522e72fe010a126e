(** Vector clocks over thread identifiers.

    A clock vector maps each thread id to a logical clock value; absent
    entries are zero.  They order events by happens-before: [leq a b] holds
    when every component of [a] is at most the corresponding component of
    [b].  Yashme uses clock vectors for the consistent-prefix computation
    ([CVpre]), for the per-cache-line write-back lower bound ([lastflush])
    and for the happens-before guard on flush-map updates (paper, section
    6).

    A clock vector is an immutable int array indexed by thread id, in
    canonical form: it has no trailing zero component, and {!empty} is
    the empty array.  So two vectors are {!equal} exactly when they are
    structurally equal ([compare a b = 0]), and equal vectors have equal
    [Hashtbl.hash]es: races, which carry their store's clock, can be
    compared structurally.  {!get} and {!leq} allocate nothing and raise
    nothing; {!join} returns whichever argument dominates when one does,
    and only otherwise builds a vector.  Thread ids are non-negative and
    small (they are handed out from 0 in spawn order), so a vector is as
    long as the largest thread id it holds plus one. *)

type t

(** The empty clock vector (all components zero). *)
val empty : t

(** [get cv tid] is the component of [cv] for thread [tid]; 0 if absent. *)
val get : t -> int -> int

(** [set cv tid clk] is [cv] with the component for [tid] replaced by
    [clk].  Raises [Invalid_argument] if [clk < 0] or [tid < 0]. *)
val set : t -> int -> int -> t

(** [tick cv tid] increments the component for [tid] by one. *)
val tick : t -> int -> t

(** [join a b] is the component-wise maximum of [a] and [b]: [a] itself
    when [leq b a], [b] itself when [leq a b]. *)
val join : t -> t -> t

(** [leq a b] holds when [a] happens-before-or-equals [b] component-wise. *)
val leq : t -> t -> bool

(** [lt a b] is [leq a b && not (equal a b)]. *)
val lt : t -> t -> bool

(** Equality of every component (absent components are zero); in
    canonical form, the same as [compare a b = 0]. *)
val equal : t -> t -> bool

(** [concurrent a b] holds when neither [leq a b] nor [leq b a]. *)
val concurrent : t -> t -> bool

(** [of_list assoc] builds a clock vector from [(tid, clock)] pairs. *)
val of_list : (int * int) list -> t

(** [to_list cv] lists the nonzero [(tid, clock)] pairs in increasing
    thread-id order. *)
val to_list : t -> (int * int) list

(** Pretty-printer, e.g. [<0:3, 2:1>]. *)
val pp : Format.formatter -> t -> unit

(** [width cv] is the number of components up to the last nonzero
    one: the largest thread id [cv] holds, plus one (0 for {!empty}). *)
val width : t -> int

(** {2 Accumulators}

    [CVpre] and each line's [lastflush] only ever grow by joins.  They
    are kept as accumulators: runs of components in a mutable int array,
    one per thread id from 0, joined into in place.  An accumulator is
    never a {!t}: {!freeze} copies one into a vector, so a vector read
    from an accumulator never changes when the accumulator does. *)

(** [join_into acc ~off cv] raises [acc.(off + tid)] to [get cv tid],
    in place, for every [tid < width cv].  Allocates nothing; raises
    [Invalid_argument] if [acc] is shorter than [off + width cv]. *)
val join_into : int array -> off:int -> t -> unit

(** [freeze acc ~off ~len] is the clock vector whose component [tid] is
    [acc.(off + tid)] for [tid < len]: a fresh canonical copy, or
    {!empty}. *)
val freeze : int array -> off:int -> len:int -> t
