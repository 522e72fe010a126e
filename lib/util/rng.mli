(** Deterministic, splittable pseudo-random number generator.

    The crash-testing harness must be able to replay an execution exactly
    (same schedule, same crash point, same read choices) from a seed, so
    all nondeterminism in the simulator flows through this module rather
    than the global [Random] state. *)

type t

(** [create seed] builds a generator from a 64-bit seed. *)
val create : int -> t

(** [copy t] is an independent generator with the same state. *)
val copy : t -> t

(** [split t] derives a new generator from [t], advancing [t]. *)
val split : t -> t

(** [int t bound] is uniform in [0, bound); requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [chance t p] is true with probability [p] (clamped to [0, 1]). *)
val chance : t -> float -> bool

(** [pick t items] draws a uniform element; raises [Invalid_argument] on
    the empty list. *)
val pick : t -> 'a list -> 'a

(** [shuffle t items] is a uniform permutation of [items]. *)
val shuffle : t -> 'a list -> 'a list
