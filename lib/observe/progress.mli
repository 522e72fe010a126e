(** Live exploration progress: a throttled heartbeat over engine batch
    callbacks.

    The engine announces batches ({!batch}) and ticks once per finished
    scenario ({!tick}); emissions go to stderr (human heartbeat) and/or
    a JSONL stream of flat objects
    ([{"done":..,"total":..,"races":..,"faults":..,"rate_per_s":..,
    "eta_s":..,"elapsed_s":..}]) that [yashme trace-lint] accepts.

    Inactive by default; when inactive, {!tick} is a no-op behind a
    single [Atomic.get] branch.  Progress is wall-clock dependent and
    is never read back by the harness: the deterministic report path
    is unaffected.

    Rate and ETA are clamped to finite non-negative values — a tick
    before any work, a zero observed rate, or a clock step never
    produces [inf]/[nan] in the stderr line or the JSONL stream (the
    heartbeat prints [eta --] while no rate is observable).  The JSONL
    stream is written through {!Yashme_util.Atomic_file}: bytes
    accumulate in a temporary and the destination name only appears at
    {!stop}, so an interrupted run leaves no truncated artifact. *)

(** Reset counters and begin emitting.  [interval_s] (default 0.5)
    throttles emissions; [heartbeat] (default true) prints the stderr
    line — suppressed while {!Log.quiet} holds (log level [off]), like
    any other stderr chatter; [jsonl] opens a JSONL stream at the given
    path, unaffected by the log level. *)
val start : ?interval_s:float -> ?heartbeat:bool -> ?jsonl:string -> unit -> unit

(** Announce [n] more scenarios to explore (grows the [total]). *)
val batch : int -> unit

(** Record the worker-pool size for the final summary line.  The final
    JSONL emission then appends ["jobs"] and a ["per_domain"] label
    ("slot:count" per worker lane) so multi-domain runs are
    attributable after the fact; throttled mid-run lines keep the
    historical shape. *)
val set_jobs : int -> unit

(** One scenario finished, having found [races] raw races; [faulted]
    marks a sandboxed scenario fault; [lane] attributes it to a worker
    slot for the final per-domain summary. *)
val tick : ?lane:int -> races:int -> faulted:bool -> unit -> unit

(** Emit a final (unthrottled) update, close the JSONL stream and
    deactivate.  Returns the number of emissions (0 if inactive), so a
    [--progress-out] file always carries at least one line. *)
val stop : unit -> int
