(** Per-scenario cost attribution: named cost centers with
    domain-sharded count / charged-unit / wall-clock accumulators,
    merged on read.

    Counts and charged units of deterministic work are jobs-invariant
    (addition commutes across shards); wall clocks are not, and neither
    are GC word deltas ([Gc.quick_stat] counters are flushed globally
    at minor collections, so per-domain deltas absorb other domains'
    allocation).  Centers carrying such quantities are registered with
    [volatile_units]; the invariant projection ([to_string
    ~timing:false], {!fields}) excludes wall clocks and volatile units,
    and is what determinism tests and the run-ledger comparison gate
    on.

    Disabled by default: every charge is a no-op behind a single
    [Atomic.get] branch, and nothing here influences the exploration
    being measured (attribution on vs off never changes a race
    report). *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

type center

(** Find-or-create the cost center registered under [name].  [units]
    labels the charged-unit column (e.g. ["bytes"], ["ops"]; default
    none); [volatile_units] marks the units as wall-clock class (GC
    words), excluded from the invariant projection.  The first
    registration of a name fixes its labels. *)
val center : ?units:string -> ?volatile_units:bool -> string -> center

val center_name : center -> string

(** Charge the calling domain's shard: [count] occurrences (default 1),
    [units] charged units and [wall_us] microseconds of wall clock.
    No-op when disabled. *)
val charge : center -> ?count:int -> ?units:int -> ?wall_us:int -> unit -> unit

(** [charge c ()] minus the optional-argument plumbing: the cheapest
    possible hot-path hook (one branch, one fetch-and-add). *)
val tick : center -> unit

type row = {
  r_center : string;
  r_units_label : string;
  r_volatile_units : bool;
  r_count : int;
  r_units : int;
  r_wall_us : int;
}

(** Merged rows of every center charged since the last {!reset},
    sorted by center name; uncharged centers are dropped. *)
val snapshot : unit -> row list

(** [diff before after] is the per-center delta, dropping all-zero
    rows; centers absent from [before] count as zero there. *)
val diff : row list -> row list -> row list

(** Zero every registered accumulator (the registry itself is kept). *)
val reset : unit -> unit

(** The [\[attribution\]] cost-center table.  [timing] (default true)
    includes the wall column and volatile charged units; [~timing:false]
    is the jobs-invariant projection — byte-identical for every
    [--jobs] count over the same work. *)
val pp : ?timing:bool -> Format.formatter -> row list -> unit

val to_string : ?timing:bool -> row list -> string

(** One flat, order-stable field list per row — the invariant
    projection only (volatile units encode as [`Null]), in the shape
    {!Yashme_util.Json} encodes verbatim. *)
val fields : row -> (string * Yashme_util.Json.value) list

(** Inverse of {!fields} (wall clocks are not serialized and read back
    as 0).  Errors on a field list that is not an attribution row. *)
val of_fields : (string * Yashme_util.Json.value) list -> (row, string) result
