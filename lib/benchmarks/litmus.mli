(** Persistency-model litmus suite: small labeled programs whose race
    reports, run across every {!Px86.Variant} built-in, localize
    semantic divergence between model variants to single rules
    (flush-buffer discipline, fence semantics, persist ordering,
    store-buffer policy).

    The rendered matrix is pinned as a golden file; CI re-runs it and
    fails on any unexpected divergence. *)

type case = {
  c_name : string;
  c_program : Pm_harness.Program.t;
  c_options : Pm_harness.Runner.options;
      (** base options (store-buffer policy, seed); the matrix driver
          overrides the [variant] field per column *)
  c_recovery : bool;
      (** drive with [model_check_recovery_outcome] (two-crash scenarios) *)
  c_doc : string;  (** one-line program summary *)
}

val cases : case list

(** The litmus programs, for the registry ([yashme list] marking and
    name lookup); never part of [Registry.all]. *)
val programs : Pm_harness.Program.t list

(** One matrix cell: the deduplicated race findings (label, report
    count, benign) and total recovery-failure reports of one litmus
    case under one variant. *)
type cell = {
  races : (string * int * bool) list;
  recovery_failures : int;
}

type matrix = {
  m_variants : string list;  (** column labels; strict-tso first *)
  m_rows : (string * cell list) list;  (** per case, in {!cases} order *)
}

(** Built-in variants, matrix column order (strict-tso first). *)
val variants : Px86.Variant.t list

val run_case : ?jobs:int -> variant:Px86.Variant.t -> case -> cell

val run_matrix : ?jobs:int -> unit -> matrix

(** Compact cell form: ["label:count[b] ..."], ["rf:n"], or ["-"]. *)
val cell_label : cell -> string

(** The divergence table: one row per case, one column per variant;
    cells differing from the strict-tso baseline carry a ['*']. *)
val render : matrix -> string

(** Does the named (case, variant) cell differ from strict-tso's? *)
val diverges : matrix -> variant:string -> case:string -> bool
