(** Source-level atomicity of a memory access.

    A persistency race (Definition 5.1 of the paper) can only involve a
    [Plain] store: the language standard lets the compiler tear or invent
    plain stores, while atomic stores must be performed with a single
    instruction. *)

type memorder = Relaxed | Acquire | Release | Acq_rel | Seq_cst

type t = Plain | Atomic of memorder

val is_atomic : t -> bool

(** [is_release a] holds for [Atomic Release], [Atomic Acq_rel] and
    [Atomic Seq_cst]: the store orders prior same-cache-line stores
    (paper, Figure 5(a) coherence argument). *)
val is_release : t -> bool

(** [is_acquire a] holds for [Atomic Acquire], [Atomic Acq_rel] and
    [Atomic Seq_cst]: a load with this access synchronizes-with the
    release store it reads from. *)
val is_acquire : t -> bool

val to_string : t -> string
