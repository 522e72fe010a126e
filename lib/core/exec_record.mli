(** Per-execution state of the Yashme detector (paper, section 6).

    Each execution [e] on the stack of a failure scenario owns:
    - [storemap]: the latest committed store to each address,
    - [flushmap]: for each store (by commit sequence number), the flushes
      that made it durable, recorded as the flushing/fencing thread and
      that thread's local clock,
    - [lastflush]: per cache line, a clock-vector lower bound on when the
      line was last written back — derived from post-crash reads of
      atomic stores (cache coherence, Figure 5(a)),
    - [cvpre]: the clock vector bounding the smallest pre-crash prefix
      consistent with everything the post-crash execution has observed
      (the key to prefix-based expansion, section 5.1).

    {2 Layout}

    Every table is a flat array: [storemap] and [lastflush] are indexed
    by cache line, [flushmap] by commit sequence number.  The lines and
    seqs are those of the execution's committed stores, which its
    machine wrote into its image and numbered; so the arrays are bounded
    by the image's extent and the run's commit count, and grow by
    doubling.  No array is indexed by a raw id, an address or a
    sentinel: a lookup out of range reads as absent.  A line's
    [storemap] entry lists the latest store to each of its addresses.

    [cvpre] and each line's [lastflush] are accumulators
    ({!Yashme_util.Clockvec.join_into}): runs of one component per
    thread id, as wide as the widest clock of a store the record holds.
    A post-crash load joins one of those clocks, so the join fits in
    place, and {!clear_joins} zeroes them in place: a cleared record is
    the record its pre-crash run left, word for word.

    A post-crash check reads single components ({!lastflush_at},
    {!cvpre_at}, {!flushes_of}) and allocates nothing.  {!lastflush}
    and {!cvpre} return snapshots: fresh clock vectors that later joins
    do not change, so a caller may keep one across joins. *)

type flush_entry = {
  fe_tid : int;  (** thread that performed the flush (or its fence) *)
  fe_lclk : int;  (** that thread's local clock at the flush/fence *)
}

type t

val create : id:int -> t
val id : t -> int

(** Latest committed store to [addr], if any. *)
val store_at : t -> Px86.Addr.t -> Px86.Event.store option

(** Record a committed store (detector-side [storemap] update).  Raises
    [Invalid_argument] if its address is negative. *)
val set_store : t -> Px86.Event.store -> unit

(** Addresses on [line] present in the storemap. *)
val line_addrs : t -> int -> Px86.Addr.t list

(** [iter_line_stores t line f] applies [f] to the latest store to each
    address on [line]. *)
val iter_line_stores : t -> int -> (Px86.Event.store -> unit) -> unit

(** Flush entries recorded for the store with commit number [seq],
    newest first. *)
val flushes_of : t -> int -> flush_entry list

(** Record a flush of the store with commit number [seq] (a committed
    store of this execution).  Raises [Invalid_argument] if [seq] is
    negative. *)
val add_flush : t -> seq:int -> flush_entry -> unit

(** A snapshot of [line]'s [lastflush]. *)
val lastflush : t -> line:int -> Yashme_util.Clockvec.t

(** Component [tid] of [line]'s [lastflush]. *)
val lastflush_at : t -> line:int -> int -> int

(** Join a clock vector into [line]'s [lastflush], in place.  [line] is
    the line of a committed store; raises [Invalid_argument] if it is
    negative. *)
val join_lastflush : t -> line:int -> Yashme_util.Clockvec.t -> unit

(** A snapshot of [cvpre]. *)
val cvpre : t -> Yashme_util.Clockvec.t

(** Component [tid] of [cvpre]. *)
val cvpre_at : t -> int -> int

(** Join a clock vector into [cvpre], in place. *)
val join_cvpre : t -> Yashme_util.Clockvec.t -> unit

(** {2 Sharing a pre-crash record}

    A pre-crash run only fills [storemap] and [flushmap]; [lastflush]
    and [cvpre] are joined by the loads of the post-crash executions
    that read this execution's stores.  So one pre-crash record can
    serve several recoveries in turn, provided each recovery's joins
    are cleared before the next one starts. *)

(** Every component of [lastflush] and [cvpre] is zero: no post-crash
    load has joined a clock into them since the record was created or
    last cleared. *)
val joins_empty : t -> bool

(** Zero every [lastflush] and [cvpre] join in place, returning the
    record to the state its pre-crash run left it in.  Snapshots taken
    before do not change. *)
val clear_joins : t -> unit
