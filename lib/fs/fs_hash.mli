(** "HashFS": a path-keyed file-system implementation.

    Every object lives in one hash table keyed by its full path; readdir
    order is hash order, handles are random volatile tokens, and renames
    re-key whole subtrees. *)

type t

val make : seed:int64 -> now:(unit -> int64) -> t

val create : t -> Server_intf.t
