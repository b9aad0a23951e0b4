(** Shared protocol types and static configuration for the PBFT substrate. *)

type view = int

type seqno = int

(** Static system configuration.  Active replicas occupy simulator node ids
    [0 .. n-1]; warm standbys (if any) use [n .. n+s-1]; clients use
    [n+s ..]; one extra id is reserved for the recovery orchestrator. *)
type config = {
  n : int;  (** number of active replicas, always [3f + 1] *)
  s : int;
      (** warm standbys: extra group members that hold keys and shadow-sync
          the stable checkpoint but never vote ([0] recovers plain 3f+1) *)
  f : int;  (** tolerated Byzantine faults *)
  checkpoint_period : int;  (** the paper's [k]: checkpoint every k-th request *)
  log_window : int;  (** [L]: the high watermark is [h + L]; a multiple of [k] *)
  client_timeout_us : int;  (** client retransmission timer *)
  viewchange_timeout_us : int;  (** backup progress timer before a view change *)
  n_principals : int;  (** replicas + standbys + clients (MAC keychain universe) *)
  batch_max : int;  (** max client requests ordered per consensus instance *)
  max_inflight : int;  (** proposals outstanding before the primary batches *)
  st_window : int;
      (** state transfer: max meta/object fetch requests in flight per
          recovering replica (the pipeline window; [1] recovers the serial
          fetcher) *)
  st_cache_objs : int;
      (** capacity of {!Base_core.Objrepo}'s digest-keyed leaf cache
          ([0] disables caching) *)
  shard_bounds : int array;
      (** oid-range -> shard map: strictly ascending exclusive upper bounds,
          one per shard, so shard [k] owns oids [bounds.(k-1) .. bounds.(k)-1]
          (shard 0 starts at oid 0).  [[||]] means a single unsharded
          agreement instance owning the whole object space. *)
}

val make_config :
  ?checkpoint_period:int ->
  ?log_window:int ->
  ?client_timeout_us:int ->
  ?viewchange_timeout_us:int ->
  ?batch_max:int ->
  ?max_inflight:int ->
  ?st_window:int ->
  ?st_cache_objs:int ->
  ?standbys:int ->
  ?shard_bounds:int array ->
  f:int ->
  n_clients:int ->
  unit ->
  config
(** Defaults: [checkpoint_period = 128], [log_window = 256],
    [client_timeout_us = 150_000], [viewchange_timeout_us = 500_000],
    [batch_max = 16], [max_inflight = 8], [st_window = 8],
    [st_cache_objs = 256], [standbys = 0],
    [shard_bounds = [||]] (unsharded).  Raises [Invalid_argument] when
    [shard_bounds] is not strictly ascending positive. *)

(** {1 Shards}

    The abstract object space can be partitioned into [S] shards, each an
    independent agreement instance (own sequence space, checkpoints and view
    changes) over the {e same} [3f+1] replicas.  Shard [k]'s primary in view
    [v] is replica [(v + k) mod n], so concurrent shards are led by distinct
    nodes and shard 0's rotation is the unsharded one, [v mod n]. *)

val n_shards : config -> int
(** Number of shards; [1] when [shard_bounds] is empty. *)

val shard_primary : config -> shard:int -> view -> int
(** The node currently leading [shard]: [(view + shard) mod n].
    [shard_primary ~shard:0] is the primary of an unsharded group. *)

val shard_of_oid : config -> int -> int
(** The shard owning an abstract object id.  Oids at or beyond the last
    bound are clamped into the last shard; unsharded configs return [0]. *)

val shard_range : config -> n_objects:int -> int -> (int * int)
(** [[lo, hi)] oid range owned by a shard of a service with [n_objects]
    abstract objects.  The last shard absorbs any objects beyond the final
    bound, matching {!shard_of_oid}'s clamping. *)

val uniform_shards : shards:int -> n_objects:int -> int array
(** An even [shard_bounds] split of [n_objects] oids into [shards] ranges
    (the empty array for [shards <= 1]). *)

val internal_client : shard:int -> int
(** The virtual client id for runtime-injected internal requests of
    [shard]'s coordinator (cross-shard locks).  Far above any real principal
    id and non-negative, so it wire-encodes like any other client id. *)

val is_internal_client : int -> bool
(** Whether a client id names a virtual internal client. *)

val replica_ids : config -> int list

val quorum : config -> int
(** [2f + 1]. *)

val weak_quorum : config -> int
(** [f + 1]: any set this large contains a correct replica. *)

val voted_for : Base_crypto.Digest_t.t option array -> int -> Base_crypto.Digest_t.t -> bool
(** Whether the vote of replica [r], in votes indexed by replica id, is for
    this digest. *)

val count_matching : Base_crypto.Digest_t.t option array -> Base_crypto.Digest_t.t -> int
(** The votes for a digest, counted in replica-id order. *)

val is_replica : config -> int -> bool
(** Active replica id ([0 <= id < n]); standbys are {e not} replicas. *)

val group_size : config -> int
(** [n + s]: active replicas plus warm standbys — the principals that hold
    replica-side keys.  Client ids start at [group_size]. *)

val is_standby : config -> int -> bool
