(** Deterministic object-id streams for oid-routed workloads (E18).

    Each generator maps an arrival index to the oid the operation should
    touch, with no pseudo-random state: the stream depends only on the
    index, never on scheduling, shard count or the engine's PRNG.  That is
    what makes shard-scaling comparisons meaningful — every configuration
    serves the {e identical} operation sequence. *)

val uniform : n_objects:int -> int -> int
(** [uniform ~n_objects i] spreads arrivals evenly over the object space
    with a coprime stride (11), so contiguous shard ranges each receive a
    near-equal share.  [n_objects] should not be a multiple of 11. *)

val hotspot : ?hot_pct:int -> n_objects:int -> int -> int
(** [hotspot ~n_objects i] skews traffic: [hot_pct]% (default 90) of
    arrivals land in the hot prefix, the first eighth of the oids (at least
    one), the rest spread over the remaining oids.  Under contiguous
    sharding the hot prefix maps to one shard, whose agreement instance
    becomes the bottleneck — the anti-scaling workload for E18. *)
