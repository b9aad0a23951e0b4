(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the repository flows through this module so
    that simulations are reproducible bit-for-bit from a seed.  The generator
    is the splitmix64 mixer of Steele, Lea and Flood, which has a full 2^64
    period and passes BigCrush when used as a stream. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Generators created from the same
    seed yield identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean; used for network
    jitter. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] pseudo-random bytes. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
