(** Hot-spot profiles over recorded span traces.

    Re-reads a trace file written by [--trace-out] (Chrome JSON or
    JSONL) and aggregates its Complete spans into self-time tables.
    Self time is a span's duration minus its direct children's
    durations, where nesting is interval containment within one
    (pid, tid) lane — matching how the Chrome viewer nests them. *)

(** Parse a trace file into events.  Dispatches on the [.jsonl]
    suffix like {!Trace.write}; unknown phases are skipped.  Errors
    name the path and a position ([PATH:LINE: ...] /
    [PATH: offset N: ...]); never raises. *)
val parse_file : string -> (Trace.event list, string) result

type row = {
  r_key : string;  (** span name or category *)
  r_count : int;
  r_total_us : int;  (** summed inclusive duration *)
  r_self_us : int;  (** summed duration minus direct children *)
}

(** Aggregate by span name, sorted by self time descending (name
    ascending on ties). *)
val by_name : Trace.event list -> row list

(** Aggregate by category; empty categories group under
    ["(uncategorized)"]. *)
val by_cat : Trace.event list -> row list

type lane = {
  l_pid : int;
  l_tid : int;
  l_spans : int;
  l_instants : int;
  l_busy_us : int;  (** summed duration of top-level spans *)
}

(** Per-(pid, tid) lane summary, sorted by (pid, tid). *)
val lanes : Trace.event list -> lane list
