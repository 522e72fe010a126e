(** Leveled logging routed through the observe layer.

    Messages at or above the current threshold print to stderr as
    ["yashme: <level>: <msg>"]. *)

type level = Off | Warn | Info | Debug

(** Set the stderr threshold (default [Warn]). *)
val set_level : level -> unit

val level : unit -> level

(** Parse ["off"|"quiet"|"warn"|"info"|"debug"] (plus ["warning"]). *)
val level_of_string : string -> level option

val level_to_string : level -> string

(** [set_quiet true] is {!set_level}[ Off]; [set_quiet false] restores
    the [Warn] default.  Kept for the [--quiet] flag. *)
val set_quiet : bool -> unit

(** True whenever warnings are suppressed (threshold below [Warn]). *)
val quiet : unit -> bool

val warn : string -> unit
val info : string -> unit
val debug : string -> unit
