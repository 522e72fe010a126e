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
    race-checked.  A detector holds one record per execution id, in a
    short list (a scenario registers at most three): a check finds its
    record by scanning it, with no hashing and no option. *)
val record : t -> id:int -> Exec_record.t option

(** Make a record begun by another detector visible to this one's
    post-crash loads, without making it current.  A family of crash
    points shares its pre-crash run's record this way; the loads only
    join its [lastflush]/[cvpre], which {!Exec_record.clear_joins}
    undoes. *)
val adopt : t -> Exec_record.t -> unit

(** Whether a {!load_atomic} or {!load_non_atomic} call naming an
    execution at or below [exec] can do anything: the detector logs its
    calls ({!log_calls}), or holds a record of such an execution.  When
    false, every such call is a no-op: it counts, reports and joins
    nothing.  A run whose detector answers false for its inherited
    state's execution skips looking up its post-crash loads' origins
    (every writer of a crash state ranks at or below the state's
    execution, {!Px86.Machine.create}). *)
val checks_upto : t -> exec:int -> bool

(** Machine observer feeding the *current* execution's record; pass it
    in the machine config. *)
val observer : t -> Px86.Observer.t

(** Figure 9, [Load_Atomic]: a post-crash load observed an atomic
    (release) store of execution [exec].  Updates [lastflush] for the
    store's cache line and [CVpre], in place. *)
val load_atomic : t -> exec:int -> store:Px86.Event.store -> unit

(** Figure 9, [Load_NonAtomic]: check one pre-crash store a post-crash
    load reads (or could read) from.  [commit] is true for the store the
    execution actually read — only committed reads advance [CVpre].
    Reports a race (see {!races}) when the store is neither covered by
    coherence ([lastflush]) nor flushed within the consistent prefix
    (prefix mode) / flushed at all before the crash (baseline mode).
    The check reads single clock components and the store's flush list
    in place: it allocates only the race it reports (and its list
    cell), and raises nothing. *)
val load_non_atomic :
  t -> exec:int -> store:Px86.Event.store -> load_addr:Px86.Addr.t ->
  load_size:int -> load_tid:int -> load_exec:int -> commit:bool -> benign:bool -> unit

(** {2 Recording and replaying post-crash checks}

    A recovery's execution depends only on its crash state, program,
    seed and options; the detector only watches it.  So the checks one
    recovery makes can stand in for another run of the same recovery:
    replayed through a second detector, against that detector's own
    records, they yield that detector's own verdicts, races and
    counters. *)

(** The {!load_atomic} and {!load_non_atomic} calls a detector logged,
    with all their arguments, oldest first.  A log is a growable buffer
    of each call's fields (its ints in one flat array, its store in
    another); a [log] value is frozen: the detector's later calls never
    change the calls it holds. *)
type log

(** Start logging this detector's {!load_atomic} and
    {!load_non_atomic} calls, dropping any earlier log.  Not logging
    (the default), a call pays one branch and allocates nothing for
    the log. *)
val log_calls : t -> unit

(** The calls logged since {!log_calls}. *)
val logged : t -> log

(** The number of calls in a log. *)
val log_length : log -> int

(** Make every call of a log again on this detector, oldest first: each
    check runs against this detector's records as they are now, counts
    what it counts and reports the race it finds.  A replayed call is
    not logged again unless this detector is logging. *)
val replay : t -> log -> unit

(** [replay_call t log i] makes call [i] (from 0) of [log] again, as
    {!replay} does, and returns the race it reported, if any.  Raises
    [Invalid_argument] unless [0 <= i < log_length log]. *)
val replay_call : t -> log -> int -> Race.t option
