(** The BASE runtime: a complete replicated system inside the simulator.

    [create] builds n = 3f+1 replicas — each running its own conformance
    wrapper, possibly over a {e different} service implementation — plus the
    requested clients, and wires them to the discrete-event network: BFT
    protocol messages, state-transfer messages, timers, MAC keychains, and
    the proactive-recovery watchdog.

    This is the deployment surface a user of the library sees: build a
    system from wrappers, add clients, call {!invoke}. *)

module Digest = Base_crypto.Digest_t

exception Stalled of string
(** The simulation could not make the requested progress: the event queue
    went quiescent or the event budget ran out.  Raised by the non-[try_]
    drivers only; never from a message handler. *)

exception Internal_error of string
(** Broken runtime wiring (a node callback ran before construction
    finished).  Unreachable by design. *)

(** The declarations of {!Cell}: the network {!msg} with its
    [msg_size], [msg_label] and [msg_kind]; the {!replica_node} cell with
    its {!recovery_stats} and a standby's {!standby_sync}; and one
    {!recovery_timeline} per recovery episode. *)
include module type of struct
  include Cell
end

val engine_config : ?seed:int64 -> ?drop_p:float -> unit -> msg Base_sim.Engine.config
(** {!Base_sim.Engine.default_config} over {!msg}, with the
    allocation-free [kind_of = msg_kind]; [seed] and [drop_p] override the
    defaults.  [create] uses it when given no [engine_config]. *)

type t

val create :
  ?engine_config:msg Base_sim.Engine.config ->
  ?profile:Base_obs.Profile.t ->
  config:Base_bft.Types.config ->
  make_wrapper:(int -> Service.wrapper) ->
  n_clients:int ->
  unit ->
  t
(** [make_wrapper i] supplies the conformance wrapper run by replica [i] —
    pass different implementations for opportunistic N-version programming.
    Each replica's {!Objrepo} (partition-tree fan-out 16) sizes its leaf
    cache by [config.st_cache_objs], and its state-transfer pipeline window
    by [config.st_window].

    When [config.shard_bounds] names S > 1 shards, every physical node runs
    S replica cells — one agreement instance per shard, each over an
    index-shifted view of the node's single wrapper — and clients route each
    request by its object footprint ({!Service.wrapper.oids_of_op}).
    Multi-object operations spanning shards commit through {!Xshard}'s
    deterministic two-phase protocol (see [doc/sharding.md]).  Sharded
    systems require [config.s = 0] (no warm-standby pool) and every shard to
    own at least one object of [make_wrapper 0]'s space.

    [profile] is shared by every replica, client and the engine (same
    aggregation model as the metrics registry); the default is a fresh
    disabled instance — pass one built with a real clock and
    {!Base_obs.Profile.enable} it to collect per-phase timings. *)

val engine : t -> msg Base_sim.Engine.t

val config : t -> Base_bft.Types.config

val replica : t -> int -> replica_node
(** Shard-0 cell of replica [rid] — the whole node when unsharded. *)

val replicas : t -> replica_node array
(** The shard-0 row of cells (all active nodes when unsharded). *)

val n_shards : t -> int
(** Number of agreement instances; 1 when unsharded. *)

val shard_replica : t -> shard:int -> int -> replica_node
(** The cell of replica [rid] serving [shard]. *)

val all_cells : t -> replica_node list
(** Every replica cell, standbys included, sorted by [(shard, rid)]. *)

val client : t -> int -> Base_bft.Client.t
(** Client by index [0 .. n_clients-1]. *)

val invoke :
  t -> client:int -> ?read_only:bool -> operation:string -> (string -> unit) -> unit
(** Asynchronous invocation through the client's protocol stack. *)

val invoke_sync : t -> client:int -> ?read_only:bool -> operation:string -> unit -> string
(** Run the simulation until the operation completes and return its result.
    Raises {!Stalled} if the simulation goes quiescent or exceeds its event
    budget first. *)

val try_invoke_sync :
  ?max_events:int ->
  t ->
  client:int ->
  ?read_only:bool ->
  operation:string ->
  unit ->
  (string, string) result
(** Like {!invoke_sync} but a stall is data, not an exception — the form
    chaos experiments use to count liveness losses. *)

val run_until_idle : ?max_events:int -> t -> unit
(** Run until all clients have no outstanding operations.  Raises {!Stalled}
    on a stall. *)

val now : t -> Base_sim.Sim_time.t

val set_behavior : ?shard:int -> t -> int -> Base_sim.Faultplan.behavior -> unit
(** Make node [rid] Byzantine (or honest again), as the fault plan's
    [behavior] verb does.  The node keeps running the honest protocol; what
    it sends is rewritten on the way out: [B_mute] drops every message,
    [B_lie] garbles the result of each REPLY, and [B_equivocate] sends odd
    replicas a PRE-PREPARE with a conflicting non-deterministic value.
    Rewritten messages are re-sealed with the node's own keys.  [?shard]
    restricts the behaviour to one agreement instance's cell, the default
    applies it to every cell the node hosts; a shard or node the system
    does not have is ignored. *)

(** {1 Proactive recovery} *)

val enable_proactive_recovery :
  ?reboot_us:int -> ?promote_us:int -> ?migrate:bool -> period_us:int -> t -> unit
(** Stagger watchdog-driven recoveries so each replica recovers once every
    [period_us], with replicas offset by [period_us / n]; the window of
    vulnerability is roughly [2 * period_us] (a replica may be compromised
    just after its recovery).  [reboot_us] is the simulated reboot time
    (default 2 s).

    With [migrate = true] (and a non-empty standby pool) the watchdog
    recovers by {e migration}: it promotes the freshest warm standby into
    the slot instead of rebooting in place, shrinking the window from
    reboot-plus-fetch to the role-switch handshake [promote_us] (default
    30 ms) plus a small catch-up fetch.  When no standby is promotable the
    watchdog skips that round, counted in [base.standby.rounds_skipped]. *)

val disable_proactive_recovery : t -> unit
(** Stop scheduling further watchdog recoveries (in-flight ones finish). *)

val recover_now : ?reboot_us:int -> t -> int -> unit
(** Force one replica through the in-place recovery procedure immediately. *)

val promote_now : ?promote_us:int -> t -> int -> unit
(** Migration recovery of slot [rid] right now: promote the freshest
    promotable standby into it (in-place fallback when none exists).  The
    demoted machine joins the pool under the standby's id with its state
    wiped, and re-syncs at leisure. *)

(** {1 Chaos}

    Scheduled fault injection, driven by a declarative
    {!Base_sim.Faultplan}.  Every fault draws its randomness from the
    engine's seeded PRNG, so a chaos run is as reproducible as a healthy
    one. *)

val apply_faultplan : t -> Base_sim.Faultplan.t -> unit
(** Schedule every event of the plan, with [at_us] offsets measured from
    the moment of this call.  Crash/reboot map to node up/down (plus timer
    re-arming on reboot), partitions and link faults map to the engine's
    scheduled windows.  [behavior] and [attack-preprepare] set the
    adversary of the named node's cells (one cell, with [shard=]), which
    rewrites what those cells send: [behavior] as {!set_behavior}, and
    while an [attack-preprepare] window is open, the cell's pre-prepares
    are muted per destination with the given probability (omission
    equivocation) and survivors are delayed.  Each cell keeps its own
    window; a later window on the same cell replaces it.  Muted and
    delayed pre-prepares are counted as [adversary.pp_muted] /
    [adversary.pp_delayed]; corrupted deliveries in the engine's
    [corrupted_msgs]. *)

(** {1 Observability}

    Every value below is a pure function of the simulation seed: metrics
    are driven by the virtual clock, traces carry virtual timestamps, and
    all JSON renders with sorted keys — two runs with the same seed export
    byte-identical reports. *)

val metrics : t -> Base_obs.Metrics.t
(** The system-wide registry: per-phase replica histograms
    ([bft.phase.*_us], [bft.view_change_us], [bft.checkpoint_interval_us])
    aggregated across the whole group, plus the state-transfer pipeline
    series — [base.st.inflight] (peak requests in flight) and the
    per-source load-spread counters [base.st.source_bytes.<rid>].  It holds
    histograms and only those counters and gauges no record keeps: the
    engine's traffic, each replica's {!Base_bft.Replica.stats} and each
    cell's fetch tally are read from those records ({!metrics_report}). *)

val trace : t -> Base_obs.Trace.t
(** Structured runtime events, each with the [rid] it concerns:
    [recovery.start] / [recovery.reboot_done] / [recovery.fetch_done],
    [st.retarget], the fetcher's [st.retry] / [st.reject] /
    [st.quarantine] / [st.assembly_rejected] / [st.restripe], and the
    fault plan's [fault.*].  The network's [net.*] events go to whatever
    sink {!Base_sim.Engine.attach_trace} was given, not here. *)

val st_totals : t -> State_transfer.stats
(** A fresh record summing the fetch tallies of every cell: all of the
    system's state-transfer traffic, including fetchers already
    discarded. *)

val recovery_timelines : t -> recovery_timeline list
(** Every recovery episode so far, oldest first. *)

val metrics_report : t -> Base_obs.Json.t
(** One deterministic report object: network totals and per-label
    breakdowns, queue depths, the metrics registry, recovery timelines,
    [replicas] (each cell's {!Base_bft.Replica.stats} under the record's
    field names, with its [rid] and [shard], in {!all_cells} order),
    state-transfer totals, and the events the runtime's trace retained
    ([trace_events]) and refused when full ([trace_dropped]). *)
