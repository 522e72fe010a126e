(** A trace sink for structured events, exported as Chrome
    [about://tracing] JSON or machine-readable JSONL.

    Events carry a name, a category, a (pid, tid) lane, a microsecond
    timestamp (wall clock clamped to be monotone) and string args.
    They are recorded into per-domain sharded buffers (one mutex per
    shard) and merged, timestamp-sorted, at export.

    Recording is off until {!start}: every emit is a no-op behind one
    [Atomic.get] branch, so instrumentation in hot paths costs one
    load + branch when disabled. *)

type phase = Complete | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_us : int;
  dur_us : int;  (** 0 for instants *)
  pid : int;
  tid : int;
  args : (string * string) list;
}

(** Current clock reading in microseconds (monotone-clamped). *)
val now_us : unit -> int

(** Clear the buffers and begin recording. *)
val start : unit -> unit

val stop : unit -> unit
val recording : unit -> bool
val clear : unit -> unit

(** Set the ambient (pid, tid) lane of the calling domain; events
    emitted without explicit [?pid]/[?tid] inherit it.  The default is
    [(0, Domain.self)]. *)
val set_context : pid:int -> tid:int -> unit

val clear_context : unit -> unit

(** Emit a completed span covering [\[ts_us, ts_us + dur_us\]]. *)
val complete :
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * string) list ->
  ts_us:int ->
  dur_us:int ->
  string ->
  unit

(** Emit a point-in-time event stamped with the current clock. *)
val instant :
  ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * string) list -> string -> unit

(** Recorded events, earliest first (at equal timestamps, longer spans
    first so parents precede children). *)
val events : unit -> event list

val event_count : unit -> int

(** Events grouped into (pid, tid) lanes, sorted by lane; each lane's
    events parents first (ascending start, longer spans first on
    ties). *)
val lanes : event list -> ((int * int) * event list) list

(** Walk one lane's Complete spans (in {!lanes} order), nesting them by
    interval containment as the Chrome viewer draws them: [f ev ~self_us
    ~top_level] is called once per span, where [self_us] is its
    duration minus its direct children's and [top_level] says no span
    encloses it. *)
val nest : event list -> (event -> self_us:int -> top_level:bool -> unit) -> unit

(** The Chrome trace-viewer document ({["{\"traceEvents\":[...]}"]}). *)
val to_chrome_json : unit -> string

(** One JSON object per line. *)
val to_jsonl : unit -> string

(** Write the trace to [path]: JSONL when the name ends in [.jsonl],
    the Chrome document otherwise. *)
val write : string -> unit

(** Validate a file with {!Yashme_util.Json}, dispatching on the
    [.jsonl] suffix like {!write}: every non-blank line of a JSONL file
    must be one JSON value, any other file one JSON document.  Empty
    files are rejected; errors are positioned ([PATH:LINE: ...] or
    [PATH: offset N: ...]); never raises. *)
val check_file : string -> (unit, string) result
