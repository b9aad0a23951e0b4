(** Proactive recovery (Section 3.4): the staggered watchdog, in-place
    reboot with differential fetch, promotion of a warm standby in place of
    the reboot, the standby shadow sync that keeps the pool warm, and one
    timeline per recovery episode.

    The module owns the per-node recovery state below.  It reaches the
    replica cells it recovers only through the {!ops} its creator hands
    it. *)

(** The records {!Runtime} re-exports. *)
module Records : sig
  (** Recovery counters of one replica cell. *)
  type recovery_stats = {
    mutable recoveries : int;
    episode : State_transfer.stats;
        (** fetch traffic since the current episode (reboot, promotion or
            shadow sync) began *)
    fetched : State_transfer.stats;  (** fetch traffic over the whole run *)
  }

  (** One proactive-recovery episode: either reboot-in-place then
      differential fetch, or ([tl_migrated]) a standby promotion then a
      catch-up fetch.  Timestamps are simulation time; [-1L] means the
      milestone was not reached (run ended mid-episode).  Consume durations
      through {!timeline_window_us} / {!timeline_handoff_us} — they are total
      over the sentinels — rather than subtracting raw fields. *)
  type recovery_timeline = {
    tl_rid : int;
    tl_migrated : bool;
    tl_start_us : int64;
    mutable tl_reboot_done_us : int64;  (** in-place episodes *)
    mutable tl_promote_done_us : int64;  (** migration episodes *)
    mutable tl_staleness_seqs : int;
        (** migration: certified checkpoint head minus the promoted standby's
            synced seqno at promotion time ([-1] until promotion completes) *)
    mutable tl_staleness_us : int64;
        (** migration: promotion time minus the standby's last completed
            shadow sync *)
    mutable tl_fetch_done_us : int64;
        (** also set, equal to the handoff milestone, when there was nothing
            to fetch *)
    mutable tl_objects : int;
    mutable tl_bytes : int;
  }

  val timeline_window_us : recovery_timeline -> int option
  (** The episode's window of vulnerability: start to fetch-done.  [None] if
      the episode never completed. *)

  val timeline_handoff_us : recovery_timeline -> int option
  (** Start to the role-switch milestone — reboot-done for in-place episodes,
      promote-done for migrations.  [None] if not reached. *)

  (** Shadow-sync state of one warm standby. *)
  type standby_sync = {
    mutable ss_synced_seq : int;
        (** seqno of the last fully shadow-synced checkpoint; [-1] before the
            first sync completes (and again right after the machine is wiped
            on demotion) *)
    mutable ss_synced_at_us : int64;
    mutable ss_root : Base_crypto.Digest_t.t;  (** abstract-state root at [ss_synced_seq] *)
    mutable ss_client_rows : (int * int64 * string) list;
    mutable ss_promotions : int;  (** times this pool slot was promoted *)
  }
end

include module type of struct
  include Records
end

val fresh_stats : unit -> recovery_stats

val timeline_json : recovery_timeline -> Base_obs.Json.t
(** Derived durations only: a milestone the episode did not reach renders
    as [null]. *)

(** The creator's side of the replica cells, by node id: an active slot or
    a standby. *)
type ops = {
  replica : int -> Base_bft.Replica.t;
  fetching : int -> bool;  (** a state transfer is in flight *)
  drop_fetch : int -> unit;  (** forget the in-flight state transfer, if any *)
  fetch :
    int ->
    seq:int ->
    digest:Base_crypto.Digest_t.t ->
    on_installed:
      (seq:int ->
      app_root:Base_crypto.Digest_t.t ->
      client_rows:(int * int64 * string) list ->
      unit) ->
    unit;
      (** fetch the certified checkpoint [(seq, digest)] into the node's
          repo; [on_installed] runs once it is installed and registered *)
  restart : int -> unit;
      (** restart the implementation from its persistent state and
          recompute every object digest *)
  discard_below : int -> int -> unit;  (** drop the node's checkpoints below a seqno *)
  swap_state : slot:int -> standby:int -> unit;
      (** exchange the repos and implementations of a slot and a standby *)
}

type 'msg t

val create :
  config:Base_bft.Types.config ->
  engine:'msg Base_sim.Engine.t ->
  chains:Base_crypto.Auth.keychain array ->
  metrics:Base_obs.Metrics.t ->
  trace:Base_obs.Trace.t ->
  orchestrator:int ->
  ops ->
  'msg t
(** Recovery is idle until {!enable}.  [orchestrator] is the pseudo-node
    that owns the watchdog, reboot and promotion-handshake timers. *)

val stats : 'msg t -> int -> recovery_stats
(** Counters of node [rid]. *)

val standby_sync : 'msg t -> int -> standby_sync option
(** [Some] iff node [rid] is a warm standby. *)

val timelines : 'msg t -> recovery_timeline list
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
