(** Machine-level events: committed stores, flushes and fences.

    Every store, [clflush] and [sfence] is assigned a global sequence
    number [seq] when it takes effect on the cache, recording the total
    cache-commit order across all threads (paper, section 6).  Each event
    also carries its issuing thread's local clock [lclk] and the clock
    vector [cv] current at issue time, which the detector uses for
    happens-before tests. *)

type store = {
  mutable seq : int;  (** cache-commit order; -1 while still buffered *)
  tid : int;
  lclk : int;
  cv : Yashme_util.Clockvec.t;
  addr : Addr.t;
  size : int;  (** bytes, 1..8 *)
  value : int64;
  access : Access.t;
  nt : bool;
      (** non-temporal (movnt): bypasses the cache; durable at the next
          fence without an explicit flush *)
  label : string option;  (** source-level field name, for race reports *)
}

type flush_kind = Clflush | Clwb

type flush = {
  mutable fseq : int;
  ftid : int;
  flclk : int;
  fcv : Yashme_util.Clockvec.t;
  faddr : Addr.t;
  kind : flush_kind;
}

type fence_kind = Sfence | Mfence

type fence = {
  ktid : int;
  klclk : int;
  kcv : Yashme_util.Clockvec.t;
  kkind : fence_kind;
}

(** [store_covers s a n] holds when store [s] writes every byte of
    [[a, a+n)]. *)
val store_covers : store -> Addr.t -> int -> bool

(** [store_overlaps s a n] holds when store [s] writes any byte of
    [[a, a+n)]. *)
val store_overlaps : store -> Addr.t -> int -> bool

(** One line naming a store's label (["?"] without one), thread, local
    clock, commit order, address range, value and access, e.g.
    [store[k tid=0 lclk=3 seq=2 0x40..+8 = 7 plain]]. *)
val store_to_string : store -> string

val pp_flush : Format.formatter -> flush -> unit
