(** The deterministic two-phase cross-shard commit (see [doc/sharding.md]).

    An operation whose declared footprint spans several shards is ordered
    by the lowest one (the coordinator), which parks it until a lock
    request injected into every other involved shard (the participants)
    has reached that shard's committed execution head.  The joint
    operation then executes on the coordinator with [modify] routed to
    each owning shard's repo, and releases the participants.  Every step is
    derived from committed sequence numbers, so all correct nodes drive the
    protocol through the same states without extra messages.

    The protocol works on the {!Cell.replica_node} matrix its creator hands
    it, [cells.(shard).(rid)], and reads each cell's replica, repo and
    wrapper directly. *)

type t
(** Cross-shard state of every active node. *)

val create :
  config:Base_bft.Types.config ->
  engine:Cell.msg Base_sim.Engine.t ->
  Cell.replica_node array array ->
  t
(** Over the cells of the active nodes, [cells.(shard).(rid)]. *)

val ready :
  t -> rid:int -> shard:int -> client:int -> timestamp:int64 -> operation:string -> bool
(** The {!Base_bft.Replica.app.ready} gate of cell [(shard, rid)].  For a
    lock request, the first query is the lock acquisition; the gate stays
    closed until the coordinator has executed the joint operation.  For a
    multi-shard client operation on its coordinator, the gate opens once
    every participant cell on the node has parked at its lock. *)

val execute :
  t ->
  rid:int ->
  shard:int ->
  client:int ->
  timestamp:int64 ->
  operation:string ->
  nondet:string ->
  read_only:bool ->
  string
(** The {!Base_bft.Replica.app.execute} hook of cell [(shard, rid)].  Lock
    requests mutate nothing.  A [modify] outside the shards the execution
    holds aborts the operation deterministically with ["#xshard-abort"]. *)

val rebooted : t -> int -> unit
(** Node [rid] came back from a crash, which killed its re-submission
    heartbeat: re-arm it if any operation is unfinished.  While armed, the
    heartbeat re-submits every missing lock of an unfinished operation each
    view-change timeout. *)

(** {1 Lock timestamps}

    Exposed for tests only: several cross-shard operations in one batch
    that share a participant shard do not commit at this revision (see
    doc/sharding.md), so no run of the system can show that their lock
    timestamps stay distinct. *)

type lock_clock
(** One node's lock-timestamp derivation state. *)

val lock_clock : n_shards:int -> lock_clock

val next_lock_ts : lock_clock -> batch_max:int -> coord:int -> seq:int -> int64
(** The lock timestamp of the next cross-shard operation coordinated by
    [coord] whose gate is first queried at committed head [seq]: several in
    one batch get distinct values, and nodes asked the same sequence of
    questions give the same answers. *)

(** {1 Per-shard views} *)

val shard_view : Base_bft.Types.config -> shard:int -> Service.wrapper -> Service.wrapper
(** Index-shifted restriction of a wrapper to one shard's slice of the
    abstract object array, so a per-shard {!Objrepo} digests, checkpoints
    and serves exactly the objects its agreement instance owns.  The
    identity when unsharded. *)
