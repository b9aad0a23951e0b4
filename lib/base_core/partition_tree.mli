(** Hierarchical state-partition (Merkle) tree over the abstract objects.

    The abstract state is an array of objects; each leaf holds the digest of
    one object and each interior node the digest of its children's digests.
    A replica fetching state recurses down this hierarchy, descending only
    into partitions whose digest differs from its own, and finally fetches
    only the objects that are out of date or corrupt (Section 2.2).

    Levels are numbered from the root: level 0 is the root, [levels t - 1]
    is the leaf level. *)

type t

module Digest = Base_crypto.Digest_t

val create : n_leaves:int -> branching:int -> t
(** All leaves start as {!Digest.zero}. [branching >= 2]. *)

val n_leaves : t -> int

val levels : t -> int
(** Number of levels including the leaf level (>= 1; 1 when the tree is a
    single leaf... never happens in practice since n_leaves > 1). *)

val set_leaf : t -> int -> Digest.t -> unit
(** Incrementally update one leaf and the digests on its path to the root. *)

val set_leaves : t -> (int * Digest.t) list -> unit
(** Bulk [set_leaf]: writes every leaf, then recomputes each touched
    interior node exactly once (bottom-up).  Produces the same tree as
    folding {!set_leaf} over the list, without re-hashing shared ancestors
    once per update — the difference between O(k log k) and O(k) node
    hashes for a k-leaf flush.  Later entries for a duplicate index win,
    as in the sequential fold. *)

val leaf : t -> int -> Digest.t

val root : t -> Digest.t

val node : t -> level:int -> index:int -> Digest.t

val width : t -> level:int -> int
(** Number of nodes at a level. *)

val children : t -> level:int -> index:int -> Digest.t array
(** Digests of the children of the node at [(level, index)]; the children
    live at [level + 1].  Raises [Invalid_argument] on the leaf level. *)

val child_span : t -> level:int -> index:int -> int * int
(** [(first, last)] indices at [level+1] covered by node [(level, index)]. *)

val copy : t -> t
(** Snapshot (used for checkpoints). *)

val equal_root : t -> t -> bool
