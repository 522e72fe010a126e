(** Persistency-model variant descriptors.

    The px86 machine's semantics are parameterized by five axes that
    published formalizations (and real implementations) disagree on.
    A [t] selects one point in that space; {!strict_tso} is the
    machine's historical behaviour and the default everywhere.

    Labels are stable and total: built-in descriptors serialize by
    name, anything else by a ["custom:..."] field encoding, and
    [of_label (label v) = Some v] for every [v]. *)

type sb_drain =
  | Drain_tso  (** Random_drain evicts any Table-1-evictable entry *)
  | Drain_fifo  (** Random_drain evicts strictly in FIFO order *)

type fence_semantics =
  | Fence_full  (** fences drain flush + write-combining buffers *)
  | Fence_nop  (** fences keep volatile ordering but persist nothing *)

type fb_apply =
  | Fb_at_fence  (** clwb queues; the flush applies when a fence drains *)
  | Fb_immediate  (** clwb applies to the persistence domain at commit *)

type persist_order =
  | Per_line  (** persists ordered per cache line (px86) *)
  | Epoch_fenced  (** a fence persists everything committed before it *)

type t = {
  sb_drain : sb_drain;
  sb_bypass : bool;  (** loads may forward from the own store buffer *)
  fence : fence_semantics;
  fb_apply : fb_apply;
  persist_order : persist_order;
}

val strict_tso : t
val sb_bypass_off : t
val sb_fifo : t
val fence_nop : t
val epoch : t
val relaxed : t

(** Built-in variants: name, descriptor, one-line description. *)
val builtins : (string * t * string) list

(** Stable textual form: a built-in name, or ["custom:sb=...,..."]. *)
val label : t -> string

(** The explicit five-field encoding (["custom:sb=...,bypass=...,..."]),
    also for built-ins; parsed by {!of_label}. *)
val field_form : t -> string

val of_label : string -> t option

val is_default : t -> bool

(** [label strict_tso]. *)
val default_label : string

