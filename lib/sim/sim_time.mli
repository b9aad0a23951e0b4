(** Simulated time, in microseconds since the start of the run. *)

type t = int64

val zero : t

val of_us : int -> t

val of_ms : int -> t

val of_sec : float -> t

val to_sec : t -> float

val add : t -> t -> t

val sub : t -> t -> t

val compare : t -> t -> int

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool
