(** The simulated x86-TSO persistent storage system (paper, Figure 2).

    One machine instance simulates one execution: per-thread store
    buffers with load bypassing, per-thread flush buffers, a shared
    volatile cache, and the persistence domain.  A machine is created
    either fresh or from the {!Crashstate.t} of a crashed predecessor,
    and produces a new crash state when it crashes.

    The machine knows nothing about the race detector; it reports events
    through an {!Observer.t}. *)

type sb_policy =
  | Eager  (** drain store buffers after every instruction *)
  | Random_drain of float
      (** after each instruction, evict random evictable entries with the
          given per-step probability, exercising Table-1 reorderings *)

(** Stable textual form of a drain policy (serialized witnesses);
    [Random_drain] renders its probability with enough digits that
    {!sb_policy_of_label} recovers the exact float. *)
val sb_policy_label : sb_policy -> string

val sb_policy_of_label : string -> sb_policy option

type config = {
  sb_policy : sb_policy;
  variant : Variant.t;
      (** persistency-model variant; {!Variant.strict_tso} is the
          historical behaviour *)
  rng : Yashme_util.Rng.t;
  observer : Observer.t;
}

type t

(** Where a load found its value. *)
type read_source =
  | From_buffer of Event.store  (** store-buffer bypass (own thread) *)
  | From_cache of Event.store  (** committed store of this execution *)
  | From_inherited
      (** memory no committed store of this execution covers: the
          {!inherited} state's.  The machine looks nothing up for it:
          {!Crashstate.find_origin} and {!Crashstate.find_candidates} on
          {!inherited} name the pre-crash store read (none for
          never-written memory) and every candidate the load could have
          read. *)

(** [exec_id] must exceed [inherited]'s ([Invalid_argument] otherwise):
    a crash state ranks its byte writers by execution id, so ids rise
    along a crash chain. *)
val create : ?inherited:Crashstate.t -> exec_id:int -> config -> t

val exec_id : t -> int
val inherited : t -> Crashstate.t

(** Current clock vector of a thread (registers the thread if new). *)
val thread_cv : t -> tid:int -> Yashme_util.Clockvec.t

(** [nt] marks a non-temporal (movnt) store: it bypasses the cache's
    write-back uncertainty and becomes durable at the thread's next
    fence, without an explicit flush. *)
val store :
  ?nt:bool ->
  t -> tid:int -> addr:Addr.t -> size:int -> value:int64 -> access:Access.t ->
  label:string option -> unit

val load :
  t -> tid:int -> addr:Addr.t -> size:int -> access:Access.t ->
  int64 * read_source

(** Compare-and-swap with locked-RMW semantics: drains the thread's
    store and flush buffers, then atomically updates the cache.  Returns
    whether the swap happened, the observed value, and where the observed
    value came from. *)
val cas :
  t -> tid:int -> addr:Addr.t -> size:int -> expected:int64 -> desired:int64 ->
  label:string option -> bool * int64 * read_source

val clflush : t -> tid:int -> addr:Addr.t -> unit
val clwb : t -> tid:int -> addr:Addr.t -> unit
val sfence : t -> tid:int -> unit
val mfence : t -> tid:int -> unit

(** Apply the configured background store-buffer drain policy; the
    executor calls this between instructions. *)
val background : t -> unit

(** Drain every store buffer and apply pending policy-independent state;
    flush buffers are left pending (only fences drain those). *)
val drain_all_sb : t -> unit

(** How a crash chooses each line's materialized persist cut. *)
type cut_strategy =
  | Cut_all  (** everything committed persisted (maximal recovery view) *)
  | Cut_lowerbound  (** only what flushes guarantee *)
  | Cut_random of Yashme_util.Rng.t  (** uniform cut at or above the bound *)

(** Stable textual form of a cut strategy.  [Cut_random] renders by
    name only — its mutable Rng is not serialized; {!cut_of_label}
    rebuilds one from [seed] (the scenario seed that determined the
    original draws), keeping replay deterministic. *)
val cut_label : cut_strategy -> string

val cut_of_label : seed:int -> string -> cut_strategy option

(** Crash now: store-buffer contents are lost; each line persists a cut
    chosen by [strategy].  Returns the durable state for the next
    execution, which is never written afterwards.

    Crashes chain under [Cut_all]: the machine keeps its last [Cut_all]
    crash state, and its next [Cut_all] crash extends that state by the
    stores committed since and the candidates of the lines changed since
    ({!Crashstate.derive}); with nothing changed, the two states share
    their image and index.  [Cut_lowerbound] and [Cut_random] crashes
    start from the inherited state and leave the kept state alone.  The
    kept state is not observable: a crash changes nothing else of the
    machine, so a run can go on after it. *)
val crash : t -> strategy:cut_strategy -> Crashstate.t

(** Clean shutdown: drain every buffer and persist every line, so the
    returned state is concrete (each location has exactly one candidate
    store). *)
val shutdown : t -> Crashstate.t

(** Number of stores currently buffered across all threads (testing). *)
val buffered_stores : t -> int

(** The persistence domain (testing and candidate inspection). *)
val persistence : t -> Persistence.t

(** {!Persistence.generation} of the machine's persistence domain.
    What {!crash} returns depends only on the inherited state, the
    persistence domain and the cut, so two crashes of one machine at the
    same generation, with the same strategy (not [Cut_random]),
    materialize equal states. *)
val generation : t -> int
