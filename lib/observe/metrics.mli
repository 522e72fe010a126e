(** The one telemetry registry.

    A cell has a name and four domain-sharded columns: count, units,
    wall clock (microseconds) and maximum, merged on read.  Merged
    values of deterministic work are identical for every [--jobs]
    count.  The metrics, attribution ({!Attribution}) and coverage
    ({!Coverage}) outputs are views over the cells: a cell's kind says
    which views show it.

    One flag arms the whole registry.  Disabled (the default), every
    hook is one [Atomic.get] branch and allocates nothing; enabled, a
    hook other than {!mark} takes no lock, hashes nothing and allocates
    nothing.  Telemetry on vs off never changes a race report. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Zero every cell and drop every program bucket. *)
val reset : unit -> unit

type kind =
  | Counter of string option
      (** the metrics view; with [Some c], also the attribution view as
          cost center [c] *)
  | Histogram  (** the metrics view, as [name#count], [#max], [#sum] *)
  | Center of { units_label : string; volatile_units : bool }
      (** the attribution view; volatile units are wall-clock class *)
  | Tally  (** program buckets only: a count *)
  | Set  (** program buckets only: distinct integers *)

type cell

(** Find-or-create the cell registered under [name]; the first
    registration fixes its kind.  A [per_program] cell (default false)
    also adds its count into the ambient program bucket. *)
val counter : ?center:string -> ?per_program:bool -> string -> cell

val histogram : string -> cell
val center : ?units:string -> ?volatile_units:bool -> ?per_program:bool -> string -> cell
val tally : string -> cell
val set : string -> cell
val name : cell -> string

(** {2 Hooks} — no-ops while disabled *)

val incr : cell -> unit
val add : cell -> int -> unit

(** One occurrence, [units] charged units and [wall_us] of wall clock;
    a negative [wall_us] charges none. *)
val charge : cell -> units:int -> wall_us:int -> unit

(** The wall clock in microseconds, for [wall_us] deltas: a plain
    reading with no shared state, so a clock step can make a delta
    negative. *)
val now_us : unit -> int

(** One sample: count 1, units [v], maximum [v]. *)
val observe : cell -> int -> unit

(** Add [i] to a {!Set} cell of the ambient program, under the set's
    lock: sets record per-scenario and per-crash events only. *)
val mark : cell -> int -> unit

(** {2 Program buckets} *)

(** The variant label assumed when none is supplied; matches
    [Px86.Variant.default_label] (this library stays free of px86). *)
val default_variant : string

(** [with_program p f] runs [f] with the [(p, variant)] bucket as the
    calling domain's ambient bucket, restoring the previous one on exit
    (also on exceptions).  Hooks outside any [with_program] count in no
    bucket.  While disabled, [f] just runs. *)
val with_program : ?variant:string -> string -> (unit -> 'a) -> 'a

(** {2 Reads} *)

type reading = {
  name : string;
  kind : kind;
  count : int;
  units : int;
  wall_us : int;
  max : int;
}

(** Merged readings of every cell, sorted by name. *)
val cells : unit -> reading list

(** [window f] runs [f] and returns what it added: count, units and wall
    deltas and the maximum of [f]'s own samples, dropping unchanged
    cells.  Windows nest; open and close them while no other domain
    writes to the registry. *)
val window : (unit -> 'a) -> 'a * reading list

type bucket = {
  program : string;
  variant : string;
  counts : (string * int) list;  (** per-program cell -> count *)
  sets : (string * int list) list;  (** set cell -> sorted members *)
}

(** Buckets anything counted into, sorted by program then variant. *)
val buckets : unit -> bucket list

(** The metrics view, sorted by name: counters, and histograms as
    [name#count] / [name#max] / [name#sum]. *)
val counters : reading list -> (string * int) list

(** [counters (cells ())]. *)
val snapshot : unit -> (string * int) list

(** [diff before after] is the per-name delta, dropping zero entries;
    names absent from [before] count as zero there. *)
val diff : (string * int) list -> (string * int) list -> (string * int) list
