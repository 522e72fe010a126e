(** The Yashme persistency-race detection algorithm (paper, section 6).

    One detector instance spans a whole failure scenario (a stack of
    executions separated by crashes).  During each pre-crash execution it
    consumes machine events through {!observer} to build that execution's
    {!Exec_record.t}; during each post-crash execution, {!load_atomic}
    and {!load_non_atomic} implement Figure 9 against the record of the
    execution the observed store belongs to.

    [mode] selects prefix-based expansion (the paper's contribution,
    section 4.2) or the baseline core algorithm that only detects a race
    when the crash landed in the store-to-flush window; Table 5 compares
    the two.

    Two further switches support the paper's discussion and our
    ablations:
    - [eadr] adapts the detector to eADR systems (section 7.5), where
      reaching the cache already guarantees persistence: the flush
      conditions (3)-(4) of Definition 5.1 are replaced by "the store's
      cache commit lies inside every consistent prefix".  eADR findings
      are always a subset of non-eADR findings, as the paper argues.
    - [coherence] disables condition (2) (the [lastflush] cache-line
      coherence argument, Figure 5(a)) to measure how many false
      positives it suppresses. *)

type mode = Prefix | Baseline

type t

val create : ?mode:mode -> ?eadr:bool -> ?coherence:bool -> unit -> t
val mode : t -> mode
val eadr : t -> bool
val coherence : t -> bool

(** Races reported so far, oldest first. *)
val races : t -> Race.t list

(** Begin recording execution [id]; subsequent machine events are
    attributed to it.  Returns its fresh record. *)
val begin_exec : t -> id:int -> Exec_record.t

(** The record of a (begun) execution.  Executions never registered are
    treated as trusted boot data: loads from their stores are never
    race-checked. *)
val record : t -> id:int -> Exec_record.t option

(** Make a record begun by another detector visible to this one's
    post-crash loads, without making it current.  A family of crash
    points shares its pre-crash run's record this way; the loads only
    join its [lastflush]/[cvpre], which {!Exec_record.clear_joins}
    undoes. *)
val adopt : t -> Exec_record.t -> unit

(** Machine observer feeding the *current* execution's record; pass it
    in the machine config. *)
val observer : t -> Px86.Observer.t

(** Figure 9, [Load_Atomic]: a post-crash load observed an atomic
    (release) store of execution [exec].  Updates [lastflush] for the
    store's cache line and [CVpre]. *)
val load_atomic : t -> exec:int -> store:Px86.Event.store -> unit

(** Figure 9, [Load_NonAtomic]: check one pre-crash store a post-crash
    load reads (or could read) from.  [commit] is true for the store the
    execution actually read — only committed reads advance [CVpre].
    Reports (and returns) a race when the store is neither covered by
    coherence ([lastflush]) nor flushed within the consistent prefix
    (prefix mode) / flushed at all before the crash (baseline mode). *)
val load_non_atomic :
  t -> exec:int -> store:Px86.Event.store -> load_addr:Px86.Addr.t ->
  load_size:int -> load_tid:int -> load_exec:int -> commit:bool -> benign:bool ->
  Race.t option

(** {2 Recording and replaying post-crash checks}

    A recovery's execution depends only on its crash state, program,
    seed and options; the detector only watches it.  So the checks one
    recovery makes can stand in for another run of the same recovery:
    replayed through a second detector, against that detector's own
    records, they yield that detector's own verdicts, races and
    counters. *)

(** One {!load_atomic} or {!load_non_atomic} call, with all its
    arguments. *)
type call

(** Start logging this detector's {!load_atomic} and
    {!load_non_atomic} calls, dropping any earlier log.  Not logging
    (the default), a call pays one branch and allocates nothing for
    the log. *)
val log_calls : t -> unit

(** The calls logged since {!log_calls}, oldest first. *)
val logged : t -> call list

(** Make a logged call again on this detector: the check runs against
    this detector's records as they are now, counts what it counts and
    reports (and returns) the race it finds.  A replayed call is not
    logged again unless this detector is logging. *)
val replay : t -> call -> Race.t option
