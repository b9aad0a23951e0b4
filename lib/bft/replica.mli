(** The PBFT replica protocol state machine.

    One value of type {!t} implements the full replica side of the
    Castro-Liskov protocol: request ordering through pre-prepare / prepare /
    commit, checkpointing with log garbage collection, view changes, and the
    triggers for hierarchical state transfer (the transfer itself is run by
    the BASE runtime through the {!app} hooks).

    The module is transport-agnostic: it never touches the simulator
    directly.  The runtime supplies a {!Message.net} for sending envelopes
    and arming {!timer}s, and an {!app} record implementing the service
    (normally a BASE conformance wrapper). *)

module Digest = Base_crypto.Digest_t

(** Upcalls into the replicated service (implemented by [Base_core]). *)
type app = {
  execute :
    client:int ->
    timestamp:int64 ->
    operation:string ->
    nondet:string ->
    read_only:bool ->
    string;
      (** Execute one operation and return the marshalled result.
          [(client, timestamp)] is the request's globally unique identity —
          the cross-shard commit keys its bookkeeping on it. *)
  propose_nondet : operation:string -> string;
      (** Primary-side proposal of non-deterministic values (e.g. the
          operation timestamp read from the local clock). *)
  check_nondet : operation:string -> nondet:string -> bool;
      (** Backup-side sanity check of the primary's proposal. *)
  ready : client:int -> timestamp:int64 -> operation:string -> bool;
      (** Execution gate, consulted for every not-yet-executed request of the
          next committed batch.  Returning [false] parks the whole batch (the
          replica stays committed-but-unexecuted at that slot) until the
          runtime calls {!resume_execution}.  The cross-shard commit protocol
          uses the {e first} [false] answer on a lock request as the
          deterministic lock-acquisition event.  Use {!always_ready} when the
          service needs no gating. *)
  take_checkpoint : seq:Types.seqno -> client_rows:(int * int64 * string) list -> Digest.t;
      (** Record a checkpoint of the abstract state at [seq], together with
          the replica's last-reply table as [(client, timestamp, result)]
          rows sorted by client (state transfer ships them alongside the
          abstract objects), and return the abstract state's digest. *)
  discard_checkpoints_below : Types.seqno -> unit;
  start_fetch : seq:Types.seqno -> digest:Digest.t -> unit;
      (** Bring the service to the certified checkpoint [(seq, digest)]
          (asynchronously); the runtime calls {!fetch_complete} when done.
          [digest] is the {e combined} checkpoint digest,
          [combine [app; client]] of the service and last-reply-table
          digests. *)
}

val always_ready : client:int -> timestamp:int64 -> operation:string -> bool
(** The trivial {!app.ready} gate: every request executes as soon as it
    commits. *)

(** What a replica arms through [net.set_timer]; the host hands it back to
    {!on_timer} when it fires. *)
type timer =
  | Vc_timeout of Types.view
      (** the view-change timer armed in this view; stale once the view moved *)
  | Status_tick  (** the periodic retransmission/progress tick *)

(** Group role.  An [Active] replica runs the full agreement protocol; a
    [Standby] is a warm spare: it holds replica-side keys and collects
    checkpoint certificates from the group-sealed CHECKPOINT broadcasts (so
    {!fetch_target} works and the runtime can shadow-sync it), but it never
    votes, proposes, executes or broadcasts.  Promotion into a failed
    replica's slot is a runtime operation — see
    {!Base_core.Runtime.promote_now}. *)
type role = Active | Standby

(** A replica's mode, as {!status} reports it. *)
type status =
  | Normal
  | View_changing  (** since it sent a VIEW-CHANGE, until NEW-VIEW or abandonment *)
  | Fetching
      (** a state transfer is in flight: nothing executes until it ends, and
          a view change that began before or during it resumes then *)

type stats = {
  mutable executed : int;  (** consensus instances executed *)
  mutable executed_requests : int;  (** client requests executed (batching makes this larger) *)
  mutable checkpoints_taken : int;
  mutable view_changes : int;
  mutable fetches : int;
  mutable rejected_macs : int;
  mutable rejected_decode : int;  (** wire bytes that failed to decode *)
  mutable rejected_insane : int;
      (** well-formed, authenticated messages whose claims are
          protocol-implausible (e.g. prepared PRE-PREPAREs outside the log
          window above the claimed checkpoint, or a vote from a principal
          that is not a replica) *)
  mutable catchup_status : int;
      (** STATUS messages sent at once rather than on the status timer,
          because the replica knew it was behind: its fetch ended, a slot
          committed above a slot it holds no PRE-PREPARE for, or it
          rebooted *)
  mutable vouchers_sent : int;
      (** backup: requests it vouched for to the primary, each once, on a
          STATUS showing the primary has nothing in flight but the backup
          still holds a request seen in no PRE-PREPARE *)
  mutable vouched_proposals : int;
      (** primary: requests it missed and took as pending because f+1
          replicas vouched for the identical request *)
}

type t

val create :
  ?metrics:Base_obs.Metrics.t ->
  ?profile:Base_obs.Profile.t ->
  ?role:role ->
  ?shard:int ->
  config:Types.config ->
  id:int ->
  keychain:Base_crypto.Auth.keychain ->
  net:timer Message.net ->
  app:app ->
  unit ->
  t
(** A fresh replica in view 0 with an empty log.  The initial-state
    checkpoint (seq 0) is taken immediately.  [role] defaults to [Active];
    a [Standby] instance only processes CHECKPOINT messages.

    [shard] (default 0) names the agreement instance this replica serves
    when the object space is sharded (see {!Types.config.shard_bounds}):
    the primary rotation is offset by it ({!Types.shard_primary}), every
    outgoing envelope is tagged and MACed with it, and authenticated
    messages tagged for a different shard are rejected as insane.  With the
    default, wire traffic is byte-identical to an unsharded replica.

    [metrics] receives per-phase latency histograms
    ([bft.phase.{pre_prepare,prepare,commit,execute,total}_us] — each slot's
    local milestone-to-milestone latency), view-change durations
    ([bft.view_change_us]), checkpoint cadence
    ([bft.checkpoint_interval_us]) and detected equivocations
    ([bft.equivocation_detected]); what {!stats} counts is not copied
    there.  Pass the same registry to every replica of a system to
    aggregate across the group; when omitted, a private (unobservable)
    registry is used.

    [profile] attaches hot-path probes ([bft.verify], [bft.seal],
    [bft.handle], [bft.execute]); defaults to the shared disabled
    instance, whose probe sites cost a branch. *)

val view : t -> Types.view

val last_executed : t -> Types.seqno

val low_watermark : t -> Types.seqno

val status : t -> status
(** Derived from two independent facts the replica keeps: whether a state
    transfer is in flight, which gates execution and wins, and whether it
    is in a view change. *)

val stats : t -> stats

val pending_count : t -> int
(** Number of clients with a request received here and not yet executed,
    one of the obligations that keep the view-change progress timer armed.
    It is kept up to date as requests arrive and execute, so reading it
    costs O(1) however many clients are registered. *)

val client_pending : t -> client:int -> bool
(** Whether [client] has a request received here and not yet executed. *)

val early_pre_prepares : t -> int
(** Number of PRE-PREPAREs held for replay while this backup waits for
    the NEW-VIEW of the view it is changing into: at most one per seqno in
    the log window. *)

val receive : t -> Message.envelope -> unit
(** Handle one authenticated protocol message.  Invalid MACs are counted
    and dropped, and so are messages tagged for another shard and
    agreement messages (anything but a REQUEST or a REPLY) whose sender is
    not an active replica: a client shares a MAC key with every replica, so
    its forged votes authenticate.  A REQUEST sent by an active replica
    for another principal's request is that replica's voucher: a primary
    takes a request it missed once f+1 replicas vouched for the identical
    one.  A backup vouches, once per request, on a STATUS from its primary
    that shows nothing in flight (doc/PROTOCOL.md, request intake). *)

val receive_wire : ?shard:int -> t -> sender:int -> macs:string array -> string -> unit
(** Handle a raw encoded message body as it would arrive off the wire.
    Malformed bytes are counted ([stats.rejected_decode]) and dropped — a Byzantine sender can never crash a
    replica with garbage input.  Well-formed bodies go through {!receive}
    and the usual MAC check.  [shard] (default 0) is the shard tag carried
    alongside the wire bytes. *)

val on_timer : t -> timer -> unit
(** A timer armed through [net.set_timer] fired.  The replica forgets its
    handle first, so it never cancels a timer that has already fired. *)

val checkpoint_digest :
  app_digest:Digest.t -> client_rows:(int * int64 * string) list -> Digest.t
(** The digest CHECKPOINT messages bind: the abstract state's digest
    combined with that of the last-reply table rows. *)

val fetch_complete :
  t -> seq:Types.seqno -> app_digest:Digest.t -> client_rows:(int * int64 * string) list -> unit
(** Called by the runtime when state transfer finished: installs the
    transferred client table (a request that arrived during the transfer
    stays pending unless the table shows it executed), moves the execution
    cursor to [seq] (down, for a rollback repair), advances watermarks when
    [seq] is ahead of them, and resumes normal processing, where a primary
    proposes the requests still pending.  If the stable watermark overtook
    [seq] while the transfer was in flight — the log needed to roll forward
    is gone — the replica immediately starts another fetch against the
    freshest certified checkpoint instead of resuming from stale state.
    Otherwise it broadcasts STATUS, so peers re-send the slots the group
    ordered above [seq] while the transfer ran. *)

val initiate_fetch : t -> unit
(** Force a state-transfer round against the best certified checkpoint known
    (used right after proactive recovery). *)

val fetch_target : t -> (Types.seqno * Digest.t) option
(** Highest checkpoint certified by f+1 distinct replicas, if any. *)

val start_status_timer : t -> unit
(** Arm the periodic retransmission/progress timer (idempotent). *)

val on_reboot : t -> unit
(** Called when the node is back up (proactive recovery, a crash).  The
    timers it armed before the reboot are cancelled, whether they fell due
    while it was down or are still pending, and it arms what its state
    needs: the escalation timer of its view change, unless it fetches, or
    else the progress timer when requests are pending, plus the status
    timer.  It then broadcasts STATUS, so peers re-send the slots it
    missed. *)

val abort_fetch : t -> unit
(** Abandon an in-flight state transfer (e.g. the watchdog rebooted us in
    the middle of one).  The replica returns to the view change the fetch
    interrupted, with its escalation timer armed, or else to normal
    operation. *)

val force_fetch : t -> seq:Types.seqno -> digest:Digest.t -> unit
(** Start a state transfer even when [seq] equals the replica's own last
    executed seqno — used after proactive recovery to {e repair} a possibly
    corrupt local state against the certified checkpoint. *)

val standby_note_synced : t -> seq:Types.seqno -> digest:Digest.t -> unit
(** Standby bookkeeping after a completed shadow sync: advance the low
    watermark to the synced checkpoint [seq] (whose {e combined} digest is
    [digest]) and discard certificate tables below it, bounding the standby's
    memory over an arbitrarily long shadowing period.  No-op on an [Active]
    replica. *)

(** {1 Cross-shard runtime hooks}

    Used by the BASE runtime's deterministic two-phase cross-shard commit
    (see [doc/sharding.md]); no-ops or inert in unsharded systems. *)

val submit_internal : t -> Message.request -> unit
(** Propose a runtime-injected internal request (a virtual
    {!Types.internal_client} id, e.g. a cross-shard lock).  Only a
    Normal-status primary accepts it;
    callers re-submit on view change via their own retry timer.  Internal
    requests execute through {!app.execute} like any other, but produce no
    reply and skip client-table pending bookkeeping. *)

val resume_execution : t -> unit
(** Re-run the execution loop after an {!app.ready} gate opened (a parked
    batch may now execute), then drain the primary's request queue. *)

val add_external_pending : t -> unit
(** Register a runtime-tracked obligation (a cross-shard lock held or
    awaited) that must keep the view-change progress timer armed even when
    no client request is pending — otherwise a faulty coordinator primary
    could park a participant shard forever without triggering a view
    change. *)

val clear_external_pending : t -> unit
(** Drop one obligation registered with {!add_external_pending}. *)
