(** File I/O and run-to-run comparison for the durable run ledger.

    The schema (entry record, field encoding, version gate, digests,
    field classification) lives in {!Observe.Ledger}; this module binds
    it to {!Yashme_util.Json}: one {!Yashme_util.Json.encode_obj} line
    per run, appended by [--ledger FILE] and re-read by [yashme runs] /
    [yashme compare] (and linted by [yashme trace-lint]). *)

(** Append one entry to [path] (created if absent), crash-safely: the
    existing entries and the new line are written to a temporary that
    atomically replaces [path], so an interrupted append never leaves
    a truncated ledger. *)
val append : string -> Observe.Ledger.entry -> unit

(** Read and decode a ledger file ({!Yashme_util.Json.load_lines}).
    Never raises; errors are positioned (["PATH:N: ..."]).  An empty
    file is an error (a ledger you can list must have at least one
    run), and a line with a version newer than
    {!Observe.Ledger.version} is a positioned error, never a silent
    misread. *)
val load : string -> (Observe.Ledger.entry list, string) result

(** Select one run: a 1-based ordinal into the file ("2" = second
    line), or a unique [e_run] label.  Ambiguous labels and
    out-of-range ordinals are errors. *)
val find :
  Observe.Ledger.entry list -> string -> (Observe.Ledger.entry, string) result

(** One numeric field that differs between two runs. *)
type delta = {
  d_field : string;
  d_baseline : float;
  d_current : float;
  d_regressed : bool;
      (** a {!Observe.Ledger.direction} [`Higher] field dropped *)
}

type comparison = {
  cmp_changed : delta list;
      (** non-timing numeric fields whose values differ; every one
          fails the compare, and a regressed one is flagged *)
  cmp_timing : delta list;  (** timing-class deltas: informational *)
  cmp_mismatched : (string * string * string) list;
      (** (field, baseline, current) string-field disagreements —
          comparing runs of different programs/variants/digests fails *)
  cmp_passed : bool;
      (** no non-timing numeric delta and no string mismatch *)
}

(** Compare two runs field by field.  The field set is the union of
    both sides' numeric fields (a side missing a field contributes 0,
    so a cost center present in only one run surfaces as a delta
    rather than vanishing); unknown extra fields never error. *)
val compare_runs :
  baseline:Observe.Ledger.entry -> current:Observe.Ledger.entry -> comparison

(** Deterministic rendering: string mismatches, changed fields with
    their relative change ([new] when the baseline is 0; regressions
    flagged), timing deltas, and a final ["ledger compare: PASS"]/[FAIL]
    line. *)
val render : a_label:string -> b_label:string -> comparison -> string
