(** Structured trace events: a timestamped name plus string attributes.

    Events carry their fields separately, render deterministically
    (attributes sorted by key), and are retained in memory so a harness can
    compare two runs byte-for-byte.  Timestamps are {!Base_sim.Sim_time} microseconds —
    never a wall clock. *)

type event = { ts : int64; name : string; attrs : (string * string) list }

type t

val create : ?limit:int -> unit -> t
(** Retains at most [limit] events (default 100_000); later events are
    dropped and counted in {!dropped}, keeping the prefix — truncation must
    not change what was already recorded. *)

val event : t -> ts:int64 -> name:string -> (string * string) list -> unit

val length : t -> int
(** Events retained. *)

val dropped : t -> int
(** Events refused because the sink was full. *)

val events : t -> event list
(** In record order. *)

val pp : Format.formatter -> t -> unit
