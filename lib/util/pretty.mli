(** Shared formatting helpers for race reports and benchmark tables. *)

(** [hex64 v] renders [v] as [0x%016Lx]. *)
val hex64 : int64 -> string

(** [pad width s] right-pads [s] with spaces to at least [width]. *)
val pad : int -> string -> string

(** [table ~header rows] renders an aligned plain-text table. *)
val table : header:string list -> string list list -> string

(** [columns ~header rows] is the header and rows as lines of cells
    padded to their column width and joined by two spaces, trailing
    padding kept: the aligned body of an indented report block. *)
val columns : header:string list -> string list list -> string list
