(** A small object-oriented database engine with deliberate non-determinism.

    Objects carry scalar fields and reference fields.  Internal object
    identifiers are random tokens, table iteration order depends on them,
    and every update stamps the object from the host's local clock — the
    divergences that break naive state-machine replication and that
    {!Oodb_wrapper} masks. *)

type record = {
  mutable fields : (string * string) list;  (** unordered *)
  mutable refs : (string * string) list;  (** field -> internal oid token *)
  mutable version_stamp : int64;  (** local-clock stamp: divergent per replica *)
}

type t

val create : seed:int64 -> now:(unit -> int64) -> t
(** A fresh database containing only the root object. *)

val root : t -> string
(** Token of the root object. *)

val get : t -> string -> record option

val alloc : t -> string
(** Allocate an empty object; returns its (random) token. *)

val delete : t -> string -> unit

val set_field : t -> string -> string -> string -> bool
(** [set_field t token field value]; [false] if the object is gone. *)

val get_field : t -> string -> string -> string option

val set_ref : t -> string -> string -> string -> bool

val clear_ref : t -> string -> string -> bool

val count : t -> int
