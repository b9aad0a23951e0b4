(** Proactive recovery (Section 3.4) and the state transfer of every
    replica cell: the staggered watchdog, in-place reboot with differential
    fetch, promotion of a warm standby in place of the reboot, the standby
    shadow sync that keeps the pool warm, one timeline per recovery
    episode, and the driver of every fetch — launch, retry, re-target and
    reply routing — whether the replica asked for it or recovery did.

    The module works on the {!Cell.replica_node} records its creator hands
    it, and reads and writes their fields directly: each cell owns its
    {!Cell.recovery_stats}, whose fetch tally every fetch of the cell
    counts into, its in-flight fetcher and, on a standby, its
    {!Cell.standby_sync}. *)

val timeline_json : Cell.recovery_timeline -> Base_obs.Json.t
(** Derived durations only: a milestone the episode did not reach renders
    as [null]. *)

type t

val create :
  config:Base_bft.Types.config ->
  engine:Cell.msg Base_sim.Engine.t ->
  chains:Base_crypto.Auth.keychain array ->
  metrics:Base_obs.Metrics.t ->
  trace:Base_obs.Trace.t ->
  orchestrator:int ->
  standbys:Cell.replica_node array ->
  Cell.replica_node array array ->
  t
(** Recovery over the active cells [cells.(shard).(rid)] and the standby
    row [standbys] (node ids [n .. n+s-1]).  The watchdog is idle until
    {!enable}; fetches run from the start.  [orchestrator] is the
    pseudo-node that owns the watchdog, reboot and promotion-handshake
    timers. *)

val timelines : t -> Cell.recovery_timeline list
(** Every recovery episode so far, oldest first. *)

val enable : ?reboot_us:int -> ?promote_us:int -> ?migrate:bool -> period_us:int -> t -> unit
(** See {!Runtime.enable_proactive_recovery}. *)

val disable : t -> unit

val recover_now : ?reboot_us:int -> t -> int -> unit

val promote : ?promote_us:int -> t -> slot:int -> standby:int -> unit
(** Promote standby [standby] into [slot], or recover [slot] in place when
    the pair is not promotable right now. *)

val promote_now : ?promote_us:int -> t -> int -> unit
(** Promote the freshest promotable standby into slot [rid]. *)

val start_fetch : t -> Cell.replica_node -> seq:int -> digest:Base_crypto.Digest_t.t -> unit
(** The {!Base_bft.Replica.app.start_fetch} upcall of a cell: fetch the
    certified checkpoint [(seq, digest)] into the cell's repo, register it,
    close the node's open recovery episode and hand the state to
    {!Base_bft.Replica.fetch_complete}. *)

val checkpoint_heard : t -> Cell.replica_node -> unit
(** A CHECKPOINT was delivered to an active cell that fetches.  When the
    cell's node is in a recovery episode and a checkpoint above the fetch's
    target is now certified, but no source has answered the fetch's head,
    the fetch re-targets to it at once ([base.st.retarget.superseded]). *)

val handle_st : t -> Cell.replica_node -> from:int -> State_transfer.msg -> unit
(** A state-transfer message delivered to a cell: requests are served from
    its checkpoints, replies go to its fetcher. *)

val arm_shadow : t -> int -> unit
(** Start standby [rid]'s shadow-sync ticks: every period, unless a sync is
    already in flight, fetch the freshest certified checkpoint. *)

val rebooted : t -> int -> unit
(** Node [rid] came back from a crash, which took its timers: re-arm the
    protocol timers of each of its active cells and restart a fetch that
    was in flight; a standby drops its dead sync and restarts its
    shadow-sync ticks. *)
