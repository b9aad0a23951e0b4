(** The deterministic two-phase cross-shard commit (see [doc/sharding.md]).

    An operation whose declared footprint spans several shards is ordered
    by the lowest one (the coordinator), which parks it until a lock
    request injected into every other involved shard (the participants)
    has reached that shard's committed execution head.  The joint
    operation then executes on the coordinator with [modify] routed to
    each owning shard's repo, and releases the participants.  Every step is
    derived from committed sequence numbers, so all correct nodes drive the
    protocol through the same states without extra messages. *)

(** What the protocol needs of the replica cells, supplied by their owner:
    the cell serving [shard] on node [rid], its repo and its wrapper. *)
type cells = {
  replica : shard:int -> int -> Base_bft.Replica.t;
  repo : shard:int -> int -> Objrepo.t;
  wrapper : shard:int -> int -> Service.wrapper;
}

type 'msg t
(** Cross-shard state of every active node. *)

val create : config:Base_bft.Types.config -> engine:'msg Base_sim.Engine.t -> cells:cells -> 'msg t

val ready :
  'msg t -> rid:int -> shard:int -> client:int -> timestamp:int64 -> operation:string -> bool
(** The {!Base_bft.Replica.app.ready} gate of cell [(shard, rid)].  For a
    lock request, the first query is the lock acquisition; the gate stays
    closed until the coordinator has executed the joint operation.  For a
    multi-shard client operation on its coordinator, the gate opens once
    every participant cell on the node has parked at its lock. *)

val execute :
  'msg t ->
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

val rebooted : 'msg t -> int -> unit
(** Node [rid] came back from a crash, which killed its re-submission
    heartbeat: re-arm it if any operation is unfinished.  While armed, the
    heartbeat re-submits every missing lock of an unfinished operation each
    view-change timeout. *)

(** {1 Pieces, exposed for tests} *)

val lock_operation : coord:int -> client:int -> ts:int64 -> parts:int list -> string
(** The operation string of a lock request: ["xlock:coord:client:ts:p1,p2"]. *)

val parse_lock : n_shards:int -> string -> (int * int * int64 * int list) option
(** Inverse of {!lock_operation}; [None] unless every field parses and
    every shard is below [n_shards]. *)

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
