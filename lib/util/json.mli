(** The one JSON codec: a strict RFC 8259 parser plus the flat-record
    encoder every JSON artifact (witness corpora, ledgers, soak
    manifests, bench rows, coverage/attribution/scaling exports, traces)
    is written with.

    The encoder is deterministic (field order preserved, fixed number
    rendering), so equal field lists encode to equal bytes.  The parser
    accepts exactly the JSON grammar — no hex, underscores, leading
    [+] or bare [.5]; no raw control characters or lone surrogates in
    strings — and never raises: every failure is an [Error] carrying a
    byte offset.  String bytes at or above 0x80 pass through verbatim. *)

(** A scalar: what a flat record holds.  A number is [`I] exactly when
    it has no fraction and no exponent. *)
type value = [ `S of string | `I of int | `B of bool | `F of float | `Null ]

(** A whole document; members and elements keep their input order. *)
type t = [ value | `A of t list | `O of (string * t) list ]

(** Escape and quote a JSON string. *)
val escape : string -> string

(** Render a flat object; field order is preserved verbatim. *)
val encode_obj : (string * value) list -> string

(** Parse one document ([Error "offset N: ..."] when malformed). *)
val parse : string -> (t, string) result

(** {!parse} a flat object: a nested array or object value is an
    error. *)
val decode_obj : string -> ((string * value) list, string) result

(** {2 Files}

    Neither loader raises: an unreadable file is an [Error] with the
    system message (which names the path), and every other error is
    positioned as [PATH:LINE: ...] or [PATH: offset N: ...].  A file
    holding only whitespace is [PATH:1: empty WHAT]. *)

(** Read and {!parse} a whole-file document. *)
val load : what:string -> string -> (t, string) result

(** Decode every non-blank line of a JSONL file, in order; line
    numbers count blank lines too. *)
val load_lines :
  what:string -> string -> (string -> ('a, string) result) -> ('a list, string) result

(** {2 Field readers}

    Look a key up in a decoded flat record; a missing key or a value of
    the wrong type is an [Error] naming the key. *)

val str : (string * value) list -> string -> (string, string) result
val int : (string * value) list -> string -> (int, string) result
val bool : (string * value) list -> string -> (bool, string) result

(** Accepts [`I] as well as [`F]. *)
val float : (string * value) list -> string -> (float, string) result

(** [None] when the key is absent or [null]. *)
val int_opt : (string * value) list -> string -> (int option, string) result

val float_opt : (string * value) list -> string -> (float option, string) result

(** The integer schema version under [key], which must lie in
    [\[oldest, current\]]; a newer one is an error saying so. *)
val version :
  key:string -> oldest:int -> current:int -> (string * value) list -> (int, string) result
