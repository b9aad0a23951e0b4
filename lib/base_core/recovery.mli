(** Proactive recovery (Section 3.4): the staggered watchdog, in-place
    reboot with differential fetch, promotion of a warm standby in place of
    the reboot, the standby shadow sync that keeps the pool warm, and one
    timeline per recovery episode.

    The module works on the {!Cell.replica_node} records of the nodes it
    recovers, which its creator hands it, and reads and writes their fields
    directly: each cell owns its {!Cell.recovery_stats} and, on a standby,
    its {!Cell.standby_sync}.  The one thing it cannot do itself is launch
    a fetch, which needs the network. *)

val timeline_json : Cell.recovery_timeline -> Base_obs.Json.t
(** Derived durations only: a milestone the episode did not reach renders
    as [null]. *)

type 'msg t

val create :
  config:Base_bft.Types.config ->
  engine:'msg Base_sim.Engine.t ->
  chains:Base_crypto.Auth.keychain array ->
  metrics:Base_obs.Metrics.t ->
  trace:Base_obs.Trace.t ->
  orchestrator:int ->
  fetch:
    (Cell.replica_node ->
    seq:int ->
    digest:Base_crypto.Digest_t.t ->
    on_installed:
      (seq:int ->
      app_root:Base_crypto.Digest_t.t ->
      client_rows:(int * int64 * string) list ->
      unit) ->
    unit) ->
  Cell.replica_node array ->
  'msg t
(** Recovery over the cells indexed by node id: the shard-0 row followed by
    the standbys.  [fetch node ~seq ~digest ~on_installed] fetches the
    certified checkpoint [(seq, digest)] into the cell's repo and runs
    [on_installed] once it is installed and registered.  Recovery is idle
    until {!enable}.  [orchestrator] is the pseudo-node that owns the
    watchdog, reboot and promotion-handshake timers. *)

val timelines : 'msg t -> Cell.recovery_timeline list
(** Every recovery episode so far, oldest first. *)

val enable : ?reboot_us:int -> ?promote_us:int -> ?migrate:bool -> period_us:int -> 'msg t -> unit
(** See {!Runtime.enable_proactive_recovery}. *)

val disable : 'msg t -> unit

val recover_now : ?reboot_us:int -> 'msg t -> int -> unit

val promote : ?promote_us:int -> 'msg t -> slot:int -> standby:int -> unit
(** Promote standby [standby] into [slot], or recover [slot] in place when
    the pair is not promotable right now. *)

val promote_now : ?promote_us:int -> 'msg t -> int -> unit
(** Promote the freshest promotable standby into slot [rid]. *)

val fetch_done : 'msg t -> int -> unit
(** Node [rid] installed a fetched checkpoint: close its open episode. *)

val arm_shadow : 'msg t -> int -> unit
(** Start standby [rid]'s shadow-sync ticks: every period, unless a sync is
    already in flight, fetch the freshest certified checkpoint. *)

val standby_rebooted : 'msg t -> int -> unit
(** Standby [rid] came back from a crash: drop its dead sync and restart
    the ticks. *)
