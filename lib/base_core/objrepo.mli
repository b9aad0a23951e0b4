(** Library-side abstract-state bookkeeping: digests, partition tree and
    copy-on-write checkpoints.

    The library never stores the service state itself — the conformance
    wrapper does, concretely.  What the library keeps is (a) the digest of
    every abstract object, organised in the {!Partition_tree}, and (b) for
    each live checkpoint, lazily-made copies of the abstract objects that
    were modified after the checkpoint was taken (Section 2.2's
    copy-on-write scheme, driven by the [modify] upcall). *)

module Digest = Base_crypto.Digest_t

type t

type checkpoint = {
  seq : int;
  tree : Partition_tree.t;  (** partition tree snapshot at the checkpoint *)
  copies : (int, string) Hashtbl.t;  (** objects modified since, old values *)
  client_rows : (int * int64 * string) list;  (** last-reply table snapshot *)
}

type cow_stats = {
  mutable objects_copied : int;  (** total copy-on-write copies made *)
  mutable bytes_copied : int;
  mutable digests_recomputed : int;
}

val create : ?cache_objs:int -> wrapper:Service.wrapper -> branching:int -> unit -> t
(** Builds the initial tree by applying the abstraction function to every
    object (a full traversal, as at replica start-up).  [cache_objs]
    (default 256, [0] disables) bounds the digest-keyed leaf cache consulted
    by state transfer — see {!cache_find}. *)

val n_objects : t -> int

val modify : t -> int -> unit
(** The [modify] upcall: called by the wrapper before changing object [i].
    Saves the current value into every live checkpoint that does not have a
    copy yet, records it in the leaf cache under its pre-modification
    digest, and marks the digest dirty. *)

val take_checkpoint : t -> seq:int -> client_rows:(int * int64 * string) list -> Digest.t
(** Refresh dirty digests, snapshot the tree, register the checkpoint and
    return the new root digest (the abstract-state component of the BFT
    checkpoint digest). *)

val discard_below : t -> int -> unit

val find_checkpoint : t -> seq:int -> checkpoint option

val object_at : t -> seq:int -> int -> string option
(** Value of object [i] as of checkpoint [seq] (copy if modified since,
    otherwise the current value via the abstraction function).  [None] if
    no checkpoint is held at [seq] or [i] is out of range — the index
    usually comes off the wire, so the function is total over it. *)

val current_tree : t -> Partition_tree.t
(** The tree with all dirty digests refreshed. *)

val current_root : t -> Digest.t

val install : t -> (int * string) list -> unit
(** Inverse abstraction for a fetched object batch: first preserves the
    values being overwritten (copy-on-write into every live checkpoint
    without its own copy — a rollback install must not corrupt newer
    snapshots still served to other fetchers — and into the leaf cache),
    then calls the wrapper's [put_objs] once with the whole batch,
    refreshes the affected digests and caches the installed values. *)

(** {1 Digest-keyed leaf cache}

    A bounded FIFO cache of object values this replica has held, keyed by
    leaf digest (which covers the object index, so a hit is always for the
    right object).  Populated by {!modify} (the copy-on-write path: the old
    value under its old digest) and {!install} (fetched values); consulted
    by {!State_transfer} so a certified leaf whose value already passed
    through this replica — typically a checkpoint value that proactive
    recovery rolls back to while the replica keeps executing under load —
    installs without a network round trip. *)

val cache_find : t -> Digest.t -> string option
(** The cached object value whose leaf digest is exactly [digest], if the
    cache still holds it.  The digest key makes the value self-certifying:
    it is byte-for-byte the value the certified digest commits to. *)

val cache_put : t -> Digest.t -> string -> unit
(** Record [data] under its leaf [digest]; a duplicate key is ignored, and
    the oldest entry is evicted once the cache exceeds its capacity. *)

val rebuild_all_digests : t -> unit
(** Recompute every leaf digest via the abstraction function — the full
    traversal a replica performs after proactive-recovery reboot. *)

val stats : t -> cow_stats
