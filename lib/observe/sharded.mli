(** Per-domain cells, merged on read: the one sharding scheme behind
    {!Metrics}, {!Attribution} and {!Coverage}.

    The calling domain writes the cell its id maps to
    ([Domain.self () land (shards - 1)]), so writers on different
    domains never contend; readers fold over every cell.  Merges that
    commute (sums, set unions) are thus the same for any [--jobs]. *)

type 'a t

(** The calling domain's cell. *)
val local : 'a t -> 'a

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** Integer counters. *)
type counter = int Atomic.t t

val counter : unit -> counter
val add : counter -> int -> unit
val sum : counter -> int
val zero : counter -> unit
