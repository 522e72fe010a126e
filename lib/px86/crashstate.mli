(** Durable memory state handed from a crashed execution to its
    post-crash successor.

    A crash materializes, per cache line, one *cut* of the committed
    store sequence (chosen by the machine's cut strategy) into a
    concrete byte image that drives post-crash control flow.
    Independently of the materialized cut, the state records for every
    stored-to location the full set of {e candidate} stores a post-crash
    load could have read — the detector checks all of them for
    persistency races, which is how Yashme piggybacks on Jaaru's
    constraint-based execution enumeration (paper, section 6,
    Implementation).

    {2 Representation}

    Besides the byte image, a state holds an immutable, line-indexed
    {!index}:
    - each cache line's 64 byte writers live in one array, and the
      arrays live in an immutable map keyed by line number;
    - candidate lists live in an immutable map keyed by
      [addr lsl 4 lor size].

    A state derived by a crash ({!derive}) shares its parent's index:
    it copies only the line arrays its run persisted into and adds only
    the keys its run stored to.  A later crash of the same run extends
    the earlier crash's state the same way, by what changed since.  A
    line array is never written after the state that owns it is
    returned, so states are shared read-only across domains.  A load
    probes one map entry per line it touches. *)

type origin = { store : Event.store; exec_id : int }

(** The byte writers and candidate lists.  Immutable once its state is
    returned. *)
type index

type t = private {
  exec_id : int;  (** execution that produced this state; -1 for boot *)
  image : Memimage.t;
  index : index;
  mutable heap_break : int;  (** allocator high-water mark, persisted *)
}

(** The pristine pre-boot state: zero image, no origins. *)
val boot : unit -> t

(** [derive base ~inherited ~exec_id pers ~from ~lines ~persisted] is the
    state a crash of execution [exec_id], seeded from [inherited], leaves
    behind, built on [base]: [base]'s image and index with every store
    committed at log position [from] or later for which [persisted]
    holds written over them in commit order, and the candidate list of
    every [(addr, size)] the execution stored to on [lines] recomputed.
    A location whose line holds a durable covering store lists only this
    execution's candidates; otherwise [inherited]'s candidates come
    first.  The heap break is [inherited]'s.  [base] and [inherited] are
    left unchanged, and the result shares with [base] only immutable
    index parts (line arrays and map subtrees).

    With [base] = [inherited], [from] = 0 and every line, that is the
    whole-run materialization.  Otherwise [base] is a state derived
    earlier in the same run, when the commit log held [from] stores;
    the result is exact when the stores committed before [from] persist
    now as they did in [base] (as when every store persists) and
    [lines] holds every line whose candidates changed since
    ({!Persistence.take_changed}).  When nothing changed since (no line,
    no store) the result shares [base]'s image and index. *)
val derive :
  t ->
  inherited:t ->
  exec_id:int ->
  Persistence.t ->
  from:int ->
  lines:int list ->
  persisted:(Event.store -> bool) ->
  t

val set_heap_break : t -> int -> unit

(** A snapshot that shares no mutable structure with [t]: the byte image
    and the record are duplicated, so executions seeded from the copy
    (possibly on another domain) can never mutate the original.  The
    index is immutable and shared, as are the committed [Event.store]
    records it reaches.

    Instrumented: when metrics or attribution are enabled, each copy
    charges {!copy_cost} bytes to the [px86/snapshot_copy] cost center
    and the [px86/snapshot_copies]/[px86/snapshot_bytes] counters. *)
val copy : t -> t

(** Nominal bytes of a state: image backing bytes plus 16 per written
    byte and 16 per candidate key.  The 16-byte charges are a stable
    magnitude (a word-sized key and a pointer), not the index's heap
    layout, and {!copy} no longer duplicates the index; the figure is
    kept so snapshot counters stay comparable across versions.
    Deterministic for a given store history, hence jobs-invariant. *)
val copy_cost : t -> int

(** Origin of a load of [[addr, addr+size)]: the newest writer among the
    bytes' origins, and whether the bytes mix several writers (a torn
    read).  Writers rank by execution id, then by commit order: ids rise
    along a crash chain ({!Machine.create} checks), and [Event.seq]
    restarts in every execution.  [None] when no byte was ever written;
    that answer allocates nothing. *)
val find_origin : t -> addr:Addr.t -> size:int -> (origin * bool) option

(** Candidate stores for a load, oldest first; falls back to the
    distinct byte writers (by store identity, ranked as in
    {!find_origin}) when no exact (addr, size) entry exists. *)
val find_candidates : t -> addr:Addr.t -> size:int -> origin list

(** [fold_origins f t acc] folds [f] over every written byte's address
    and writer, in address order. *)
val fold_origins : (Addr.t -> origin -> 'a -> 'a) -> t -> 'a -> 'a

(** [fold_candidates f t acc] folds [f] over every candidate key and its
    list, in (addr, size) order. *)
val fold_candidates :
  (addr:Addr.t -> size:int -> origin list -> 'a -> 'a) -> t -> 'a -> 'a
