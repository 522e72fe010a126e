(** Px86sim instruction-reordering constraints (paper, Table 1).

    [required ~earlier ~later ~same_line] answers whether the order of two
    instructions in program order must be preserved by the storage
    system.  [CL] cells of the table map to [same_line = true]. *)

type kind = Read | Write | Rmw | Mfence_k | Sfence_k | Clflushopt | Clflush_k

(** [required ~earlier ~later ~same_line] is true when [earlier] may not
    be reordered after [later]. *)
val required : earlier:kind -> later:kind -> same_line:bool -> bool

(** All kinds, in the row/column order of Table 1. *)
val all_kinds : kind list

(** Renders the full Table 1 matrix as text (used by the benchmark
    harness to regenerate the table). *)
val table : unit -> string
