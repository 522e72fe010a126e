(** Likely-persistence invariants inferred from crash-free traces.

    WITCHER-style (arXiv 2012.06086): a crash-free reference execution
    is traced at cache-commit granularity ({!Px86.Trace}); the labelled
    stores in that trace induce two families of likely invariants over
    the program's named durable fields:

    - {b ordering} — field [A] is always made persistent before field
      [B].  Inferred when every committed store to [A] precedes every
      committed store to [B] in the reference trace (persist order on
      x86 follows commit order for same-thread flush+fence protocols,
      so commit order is the observable proxy the trace gives us);
    - {b atomicity} — a set of fields is always updated together.
      Inferred when two or more labelled fields live on one cache line
      in the reference trace: the persistency domain moves whole lines,
      so a crash can never split them.

    Inference is {e likely}, not sound: a single reference trace cannot
    distinguish invariants from coincidences (see DESIGN "Invariant
    oracle" for the caveats).  What it is, is deterministic — equal
    traces infer equal invariant lists in equal order — which is what
    the byte-identity contracts downstream need. *)

type t =
  | Order of { before : string; after : string }
      (** [before] is always persisted no later than [after]. *)
  | Atomic of { fields : string list }
      (** Sorted, >= 2 fields sharing one cache line: persisted as a
          unit. *)

(** Stable rendering, also the serialized form: ["order A < B"] /
    ["atomic A, B"].  Labels are escaped ({!escape}) so arbitrary
    program strings round-trip. *)
val label : t -> string

val compare : t -> t -> int

(** Infer invariants from a reference trace's entries (commit order).
    Only [Store] entries with a [label] participate; the result is
    sorted ({!compare}) and duplicate-free. *)
val infer : Px86.Trace.entry list -> t list

(** Serialize to/from the invariant-file format: one {!label} line per
    invariant.  [of_lines] ignores blank lines and [#] comments and
    reports the first malformed line. *)
val to_lines : t list -> string

val of_lines : string -> (t list, string) result

(** Escape a field label for the single-line formats: backslash, tab,
    newline, comma and [<] are [\xNN]-escaped so separators stay
    unambiguous. *)
val escape : string -> string
