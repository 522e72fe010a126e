(** The persistence domain: which committed stores are guaranteed durable.

    Stores to the same cache line reach persistent memory in their
    cache-commit order, so for every line the set of possible post-crash
    states is a *cut* of the line's committed-store sequence.  Explicit
    flushes raise the lower bound of that cut: after a [clflush] commits
    (or a [clwb] commits and its thread later fences), every store that
    committed to the line earlier is durable.  The upper bound is always
    "everything committed" (the cache may have evicted the line on its
    own at any time). *)

type t

val create : unit -> t

(** Record a store that has left a store buffer and hit the cache. *)
val commit_store : t -> Event.store -> unit

(** [flush_line t ~line ~seq] raises the durable lower bound of [line]:
    every store to [line] with [Event.seq < seq] is now persisted. *)
val flush_line : t -> line:int -> seq:int -> unit

(** Committed stores to [line], oldest (lowest seq) first. *)
val line_stores : t -> int -> Event.store list

(** [history t line] is {!line_stores} newest first, without copying:
    the order the machine keeps it in. *)
val history : t -> int -> Event.store list

(** [iter_committed t ~from f] applies [f] once to every store committed
    at log position [from] or later, in commit (seq) order; a store
    straddling two lines is visited once. *)
val iter_committed : t -> from:int -> (Event.store -> unit) -> unit

(** Length of the commit log: the number of committed stores. *)
val committed : t -> int

(** The lines whose {!candidates} may have changed since the previous
    call (since {!create} for the first): a store committed to the line
    (a straddling store changes both its lines), its lower bound raised,
    or a store on it marked durable.  Each line is listed once, in no
    particular order; the next call starts a new set. *)
val take_changed : t -> int list

(** Durable lower bound for [line]: stores with [seq] below this are
    guaranteed persisted.  0 when the line was never flushed. *)
val cut_lb : t -> int -> int

(** All lines ever stored to. *)
val lines : t -> int list

(** [candidates t ~addr ~size] lists the pre-crash stores a post-crash
    load of [[addr, addr+size)] could read from, oldest first: the newest
    covering store at or below the line's durable lower bound, plus every
    later covering store (any of them may or may not have persisted). *)
val candidates : t -> addr:Addr.t -> size:int -> Event.store list

(** [newest_covering t ~addr ~size] is the newest committed store that
    covers the range, if any.  It scans the line's history in place:
    a load pays no copy of the line's stores. *)
val newest_covering : t -> addr:Addr.t -> size:int -> Event.store option

(** [latest_at_or_below t ~addr ~size ~cut] is the newest store covering
    the range with [seq <= cut] (or individually durable), if any. *)
val latest_at_or_below : t -> addr:Addr.t -> size:int -> cut:int -> Event.store option

(** Mark one committed store durable on its own — a non-temporal store
    whose thread fenced (movnt bypasses the cache and the per-line cut
    order). *)
val mark_durable : t -> Event.store -> unit

(** Whether a store is durable independent of its line's cut. *)
val is_durable_nt : t -> Event.store -> bool

(** A counter bumped by every change a crash can show: a store commit,
    a new line entry, a raised lower bound and a store marked durable.
    It only grows, so two moments of one run with the same generation
    (and the same inherited state) crash into the same state. *)
val generation : t -> int
