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
      (the key to prefix-based expansion, section 5.1). *)

type flush_entry = {
  fe_tid : int;  (** thread that performed the flush (or its fence) *)
  fe_lclk : int;  (** that thread's local clock at the flush/fence *)
}

type t

val create : id:int -> t
val id : t -> int

(** Latest committed store to [addr], if any. *)
val store_at : t -> Px86.Addr.t -> Px86.Event.store option

(** Record a committed store (detector-side [storemap] update). *)
val set_store : t -> Px86.Event.store -> unit

(** Addresses on [line] present in the storemap. *)
val line_addrs : t -> int -> Px86.Addr.t list

(** Flush entries recorded for the store with commit number [seq]. *)
val flushes_of : t -> int -> flush_entry list

val add_flush : t -> seq:int -> flush_entry -> unit

val lastflush : t -> line:int -> Yashme_util.Clockvec.t
val join_lastflush : t -> line:int -> Yashme_util.Clockvec.t -> unit

val cvpre : t -> Yashme_util.Clockvec.t
val join_cvpre : t -> Yashme_util.Clockvec.t -> unit

(** {2 Sharing a pre-crash record}

    A pre-crash run only fills [storemap] and [flushmap]; [lastflush]
    and [cvpre] are joined by the loads of the post-crash executions
    that read this execution's stores.  So one pre-crash record can
    serve several recoveries in turn, provided each recovery's joins
    are cleared before the next one starts. *)

(** No post-crash load has joined into [lastflush] or [cvpre]. *)
val joins_empty : t -> bool

(** Drop every [lastflush] and [cvpre] join, returning the record to
    the state its pre-crash run left it in. *)
val clear_joins : t -> unit
