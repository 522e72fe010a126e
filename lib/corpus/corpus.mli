(** Corpus files: JSONL collections of witnesses with key-based dedup.

    A corpus file holds one {!Witness.t} per line.  All operations
    deduplicate by {!Witness.identity} keeping the {e first}
    occurrence, so {!merge} is idempotent: merging a saved corpus with
    itself re-emits the original file byte-for-byte. *)

type stats = {
  total : int;  (** witnesses after dedup *)
  races : int;
  recovery_failures : int;
  consistency_violations : int;  (** invariant-oracle findings *)
  programs : (string * int) list;  (** per-program counts, sorted by name *)
  distinct_keys : int;
      (** distinct finding keys ignoring the program — cross-program
          collisions (e.g. one PMDK library bug surfacing through
          several example programs) collapse here *)
  duplicates_folded : int;  (** input lines dropped by dedup *)
}

(** Concatenate, then keep the first occurrence of each
    {!Witness.identity}.  Returns the kept witnesses (input order) and
    the number folded away. *)
val merge : Witness.t list list -> Witness.t list * int

val stats : ?duplicates_folded:int -> Witness.t list -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Render witnesses as JSONL (one line each, trailing newline). *)
val to_jsonl : Witness.t list -> string

(** Write a corpus file ({!to_jsonl} bytes), crash-safely: the bytes
    go to a temporary which atomically replaces [path]
    ({!Yashme_util.Atomic_file}), so an interrupted save never leaves
    a truncated corpus. *)
val save : string -> Witness.t list -> unit

(** Load and decode a corpus file.  Never raises: [Error] carries a
    positioned reason ([file:line: ...]) for malformed or mid-line
    truncated input, an unreadable path reports the system error, and
    an empty (or whitespace-only) file is an error — the signature of
    an interrupted non-atomic writer, not a valid corpus. *)
val load : string -> (Witness.t list, string) result
