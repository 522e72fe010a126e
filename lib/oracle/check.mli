(** The state-diff oracle: post-crash observations against the states
    reachable under the inferred invariants.

    A {!reference} pairs two crash-free observations of the program's
    [observe] snapshot — [r_init] (recovery over a cleanly-shut-down
    image, before the workload ran) and [r_final] (recovery after the
    workload ran to completion) — with the invariants inferred from the
    workload's trace.  Only fields whose value {e changed} between init
    and final are tracked; a crash can leave each tracked field at its
    old value, its new value, or (a bug) something else.

    {!check} classifies every tracked field of a post-crash-recovery
    observation and reports:

    - [value:F] — field [F] holds neither its init nor its final value:
      no crash point under any ordering explains it (torn or corrupted);
    - [order:A<B] — an [Order {before = A; after = B}] invariant with
      [A] old and [B] new: [B] persisted first, contradicting every
      reference execution;
    - [atomic:F1,F2,..] — an [Atomic] group mixing old and new members:
      a single-line update was split.

    Keys are plan-free — like race dedup keys, one violation identity
    collapses across every crash point that exhibits it — and the
    violation list is sorted by key, so reports and corpora stay
    byte-identical across [--jobs]. *)

type reference = {
  r_init : (string * string) list;
  r_final : (string * string) list;
  r_invariants : Invariant.t list;
}

type violation = {
  v_key : string;  (** stable dedup identity, plan-free *)
  v_detail : string;  (** human-readable exemplar *)
}

val check : reference -> observed:(string * string) list -> violation list
