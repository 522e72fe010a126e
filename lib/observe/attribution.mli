(** The attribution view of the registry: named cost centers with
    count, charged-unit and wall-clock columns.

    A center is a {!Metrics.Center} cell, or a {!Metrics.Counter} that
    carries a cost-center name (its count is the center's count).
    Counts and charged units of deterministic work are jobs-invariant
    (addition commutes across shards); wall clocks are not, and neither
    are GC words.  Centers carrying such quantities are registered with
    [volatile_units]; the invariant projection ([to_string
    ~timing:false], {!fields}) excludes wall clocks and volatile units,
    and is what determinism tests and the run-ledger comparison gate
    on. *)

(** A row is the reading of a cost center: its [name] is the center's
    name and its kind a {!Metrics.Center}. *)
type row = Metrics.reading

(** The cost centers among [readings], sorted by center name; centers
    with nothing charged are dropped. *)
val rows : Metrics.reading list -> row list

(** The [\[attribution\]] cost-center table.  [timing] (default true)
    includes the wall column and volatile charged units; [~timing:false]
    is the jobs-invariant projection — byte-identical for every
    [--jobs] count over the same work. *)
val to_string : ?timing:bool -> row list -> string

(** One flat, order-stable field list per row — the invariant
    projection only (volatile units encode as [`Null]), in the shape
    {!Yashme_util.Json} encodes verbatim. *)
val fields : row -> (string * Yashme_util.Json.value) list

(** Inverse of {!fields} (wall clocks are not serialized and read back
    as 0).  Errors on a field list that is not an attribution row. *)
val of_fields : (string * Yashme_util.Json.value) list -> (row, string) result
