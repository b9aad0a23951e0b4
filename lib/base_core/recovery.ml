module Digest = Base_crypto.Digest_t
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Auth = Base_crypto.Auth
module Metrics = Base_obs.Metrics

module Records = struct
  type recovery_stats = {
    mutable recoveries : int;
    episode : State_transfer.stats;
    fetched : State_transfer.stats;
  }

  (* One proactive-recovery episode: either reboot-in-place then differential
     fetch, or (migration) a standby promotion then a catch-up fetch.  The
     [-1L] sentinels mean "not reached yet" — an episode cut short (e.g. the
     run ended mid-reboot) keeps them; all duration math goes through the
     total [span] helper below, never raw field subtraction. *)
  type recovery_timeline = {
    tl_rid : int;
    tl_migrated : bool;
    tl_start_us : int64;
    mutable tl_reboot_done_us : int64;
    mutable tl_promote_done_us : int64;
    mutable tl_staleness_seqs : int;
    mutable tl_staleness_us : int64;
    mutable tl_fetch_done_us : int64;
    mutable tl_objects : int;
    mutable tl_bytes : int;
  }

  (* [until - since] as a total duration: [None] whenever the earlier or the
     later milestone was never reached. *)
  let span ~since ~until =
    if Int64.compare since 0L >= 0 && Int64.compare until since >= 0 then
      Some (Int64.to_int (Int64.sub until since))
    else None

  let timeline_window_us tl = span ~since:tl.tl_start_us ~until:tl.tl_fetch_done_us

  let timeline_handoff_us tl =
    if tl.tl_migrated then span ~since:tl.tl_start_us ~until:tl.tl_promote_done_us
    else span ~since:tl.tl_start_us ~until:tl.tl_reboot_done_us

  type standby_sync = {
    mutable ss_synced_seq : int;  (* -1 before the first completed shadow sync *)
    mutable ss_synced_at_us : int64;
    mutable ss_root : Digest.t;  (* abstract-state root at [ss_synced_seq] *)
    mutable ss_client_rows : (int * int64 * string) list;
    mutable ss_promotions : int;
  }
end

include Records

let fresh_stats () =
  {
    recoveries = 0;
    episode = State_transfer.fresh_stats ();
    fetched = State_transfer.fresh_stats ();
  }

(* Episode export: derived durations only, never raw milestone timestamps —
   a milestone the episode did not reach renders as [null], not as a
   sentinel the consumer has to know about. *)
let timeline_json tl =
  let open Base_obs.Json in
  let opt = function Some v -> Int v | None -> Null in
  obj
    [
      ("bytes", Int tl.tl_bytes);
      ("handoff_us", opt (timeline_handoff_us tl));
      ("migrated", Bool tl.tl_migrated);
      ("objects", Int tl.tl_objects);
      ("rid", Int tl.tl_rid);
      ( "staleness_seqs",
        if tl.tl_migrated && tl.tl_staleness_seqs >= 0 then Int tl.tl_staleness_seqs else Null );
      ( "staleness_us",
        if tl.tl_migrated && Int64.compare tl.tl_staleness_us 0L >= 0 then
          Int (Int64.to_int tl.tl_staleness_us)
        else Null );
      ("start_us", Int (Int64.to_int tl.tl_start_us));
      ("window_us", opt (timeline_window_us tl));
    ]

type ops = {
  replica : int -> Replica.t;
  fetching : int -> bool;
  drop_fetch : int -> unit;
  fetch :
    int ->
    seq:int ->
    digest:Digest.t ->
    on_installed:(seq:int -> app_root:Digest.t -> client_rows:(int * int64 * string) list -> unit) ->
    unit;
  restart : int -> unit;
  discard_below : int -> int -> unit;
  swap_state : slot:int -> standby:int -> unit;
}

type 'msg t = {
  engine : 'msg Engine.t;
  config : Types.config;
  chains : Auth.keychain array;
  metrics : Metrics.t;
  trace : Base_obs.Trace.t;
  orchestrator : int;
  ops : ops;
  (* Per node id, over the whole n + s group. *)
  stats : recovery_stats array;
  syncs : standby_sync option array;  (* [Some] iff the node is a warm standby *)
  recovering : bool array;
  episodes : recovery_timeline option array;  (* the episode waiting for its milestones *)
  mutable timelines : recovery_timeline list;  (* newest first *)
  mutable period_us : int;
  mutable reboot_us : int;
  mutable promote_us : int;  (* simulated role-switch handshake time *)
  mutable migrate : bool;  (* the watchdog recovers by promotion, not reboot *)
  mutable on : bool;
  mutable pending : (int * int) list;  (* (slot, standby) handshakes *)
}

let create ~config ~engine ~chains ~metrics ~trace ~orchestrator ops =
  let group = Types.group_size config in
  {
    engine;
    config;
    chains;
    metrics;
    trace;
    orchestrator;
    ops;
    stats = Array.init group (fun _ -> fresh_stats ());
    syncs =
      Array.init group (fun rid ->
          if Types.is_standby config rid then
            Some
              {
                ss_synced_seq = -1;
                ss_synced_at_us = -1L;
                ss_root = Digest.zero;
                ss_client_rows = [];
                ss_promotions = 0;
              }
          else None);
    recovering = Array.make group false;
    episodes = Array.make group None;
    timelines = [];
    period_us = 0;
    reboot_us = 2_000_000;
    promote_us = 30_000;
    migrate = false;
    on = false;
    pending = [];
  }

let stats r rid = r.stats.(rid)

let standby_sync r rid = r.syncs.(rid)

let timelines r = List.rev r.timelines

let now r = Engine.now r.engine

let trace_event r name attrs = Base_obs.Trace.event r.trace ~ts:(now r) ~name attrs

let count r name = Metrics.incr (Metrics.counter r.metrics name)

let set_timer r ~node ~after_us fire =
  ignore (Engine.set_timer r.engine ~node ~after:(Sim_time.of_us after_us) fire)

let fetch_done r rid =
  match r.episodes.(rid) with
  | Some tl ->
    let episode = r.stats.(rid).episode in
    tl.tl_fetch_done_us <- now r;
    tl.tl_objects <- episode.State_transfer.objects_fetched;
    tl.tl_bytes <- episode.State_transfer.bytes_fetched;
    r.episodes.(rid) <- None;
    (match timeline_window_us tl with
    | Some w ->
      Metrics.observe (Metrics.histogram r.metrics "base.recovery.window_us") (float_of_int w)
    | None -> ());
    trace_event r "recovery.fetch_done"
      [
        ("bytes", string_of_int tl.tl_bytes);
        ("objects", string_of_int tl.tl_objects);
        ("rid", string_of_int rid);
      ]
  | None -> ()

(* --- standby shadow sync ---------------------------------------------------- *)

(* Pool warmth is bounded by this cadence: a promoted standby's catch-up
   fetch covers at most one period's worth of writes (plus the sync in
   flight), so the period must sit well below the recovery period for the
   window of vulnerability to stay handshake-dominated. *)
let shadow_sync_period_us = 50_000

(* Chase the stable checkpoint watermark: fetch the freshest certified
   checkpoint into the standby's repo through the normal self-verifying
   pipeline, then keep only that checkpoint, so (a) the next sync is an
   incremental diff against it and (b) a promoted standby can serve it to
   other fetchers. *)
let start_shadow_sync r rid ss ~seq ~digest =
  let episode = r.stats.(rid).episode in
  State_transfer.reset_stats episode;
  r.ops.fetch rid ~seq ~digest ~on_installed:(fun ~seq ~app_root ~client_rows ->
      r.ops.discard_below rid seq;
      let client_digest = State_transfer.combined_digest ~app_root ~client_rows in
      Replica.standby_note_synced (r.ops.replica rid) ~seq ~digest:client_digest;
      ss.ss_synced_seq <- seq;
      ss.ss_synced_at_us <- now r;
      ss.ss_root <- app_root;
      ss.ss_client_rows <- client_rows;
      let bytes = episode.State_transfer.bytes_fetched in
      Metrics.incr ~by:bytes (Metrics.counter r.metrics "base.standby.shadow_bytes");
      trace_event r "standby.synced"
        [
          ("bytes", string_of_int bytes);
          ("rid", string_of_int rid);
          ("seq", string_of_int seq);
        ])

let rec arm_shadow r rid =
  set_timer r ~node:rid ~after_us:shadow_sync_period_us (fun () -> shadow_tick r rid)

and shadow_tick r rid =
  (* A sync in flight is driven by its own retry chain. *)
  (if not (r.ops.fetching rid) then
     match (Replica.fetch_target (r.ops.replica rid), r.syncs.(rid)) with
     | Some (seq, digest), Some ss when seq > ss.ss_synced_seq ->
       start_shadow_sync r rid ss ~seq ~digest
     | (Some _ | None), _ -> ());
  arm_shadow r rid

let standby_rebooted r rid =
  (* The crash took the shadow-sync timer and any sync in flight with it. *)
  r.ops.drop_fetch rid;
  arm_shadow r rid

(* --- in-place recovery -------------------------------------------------------- *)

let start_episode r rid ~migrated =
  r.recovering.(rid) <- true;
  let st = r.stats.(rid) in
  st.recoveries <- st.recoveries + 1;
  let tl =
    {
      tl_rid = rid;
      tl_migrated = migrated;
      tl_start_us = now r;
      tl_reboot_done_us = -1L;
      tl_promote_done_us = -1L;
      tl_staleness_seqs = -1;
      tl_staleness_us = -1L;
      tl_fetch_done_us = -1L;
      tl_objects = 0;
      tl_bytes = 0;
    }
  in
  r.episodes.(rid) <- Some tl;
  r.timelines <- tl :: r.timelines

(* The slot machine goes down: its in-flight fetch dies with it. *)
let abandon_fetch r rid =
  r.ops.drop_fetch rid;
  Replica.abort_fetch (r.ops.replica rid)

let begin_reintegration r rid =
  (* The machine is back up: fresh session keys (stolen ones are now
     useless), restart the implementation from its persistent state, and
     recompute the abstraction function over the whole concrete state — the
     depth-first traversal of Section 3.4. *)
  Auth.refresh_keys r.chains rid;
  r.ops.restart rid;
  State_transfer.reset_stats r.stats.(rid).episode;
  let replica = r.ops.replica rid in
  Replica.on_reboot replica;
  (* Compare with the rest of the group and fetch only what differs.  If no
     suitable certified checkpoint is known (quiet system, or the group is
     behind us), the local state is deemed up to date until the next
     checkpoint exposes any divergence. *)
  (match Replica.fetch_target replica with
  | Some (seq, digest) -> Replica.force_fetch replica ~seq ~digest
  | None -> fetch_done r rid);
  r.recovering.(rid) <- false

let reboot_done r rid =
  Engine.set_node_up r.engine rid true;
  (match r.episodes.(rid) with Some tl -> tl.tl_reboot_done_us <- now r | None -> ());
  trace_event r "recovery.reboot_done" [ ("rid", string_of_int rid) ];
  begin_reintegration r rid

let recover_now ?reboot_us r rid =
  Base_util.Invariant.require
    (Types.n_shards r.config = 1)
    "Runtime.recover_now: proactive recovery requires an unsharded object space";
  let reboot_us = Option.value reboot_us ~default:r.reboot_us in
  if not r.recovering.(rid) then begin
    start_episode r rid ~migrated:false;
    trace_event r "recovery.start" [ ("rid", string_of_int rid) ];
    abandon_fetch r rid;
    (* Reboot: the node is unreachable while restarting. *)
    Engine.set_node_up r.engine rid false;
    set_timer r ~node:r.orchestrator ~after_us:reboot_us (fun () -> reboot_done r rid)
  end

(* --- migration-based recovery ---------------------------------------------- *)

let synced ss = ss.ss_synced_seq >= 0

(* A standby can take over a slot once it has completed at least one shadow
   sync, while its machine is up and it is not already half-way through a
   promotion handshake. *)
let usable r sb ss =
  synced ss && Engine.node_is_up r.engine sb && not (List.exists (fun (_, b) -> b = sb) r.pending)

(* The freshest usable standby; ties go to the lowest id, keeping runs
   deterministic. *)
let eligible_standby r =
  let best = ref None in
  Array.iteri
    (fun sb sync ->
      match (sync, !best) with
      | Some ss, Some (_, best_seq) when usable r sb ss && best_seq < ss.ss_synced_seq ->
        best := Some (sb, ss.ss_synced_seq)
      | Some ss, None when usable r sb ss -> best := Some (sb, ss.ss_synced_seq)
      | (Some _ | None), _ -> ())
    r.syncs;
  Option.map fst !best

let complete_promotion r ~slot ~sb ss =
  Engine.set_node_up r.engine slot true;
  (* Key handoff: fresh session keys for both identities — the slot because
     a different machine now speaks for it, the demoted machine because its
     old keys are suspect. *)
  Auth.refresh_keys r.chains slot;
  Auth.refresh_keys r.chains sb;
  (* The standby's warm repo and implementation take over the slot
     identity; the suspect state moves to the standby identity to be wiped
     at leisure. *)
  r.ops.swap_state ~slot ~standby:sb;
  ss.ss_promotions <- ss.ss_promotions + 1;
  count r "base.standby.promotions";
  let lag = Int64.sub (now r) ss.ss_synced_at_us in
  Metrics.observe (Metrics.histogram r.metrics "base.standby.lag_us") (Int64.to_float lag);
  let replica = r.ops.replica slot in
  (match r.episodes.(slot) with
  | Some tl ->
    tl.tl_promote_done_us <- now r;
    tl.tl_staleness_us <- lag;
    let head =
      match Replica.fetch_target replica with Some (seq, _) -> seq | None -> ss.ss_synced_seq
    in
    tl.tl_staleness_seqs <- max 0 (head - ss.ss_synced_seq)
  | None -> ());
  State_transfer.reset_stats r.stats.(slot).episode;
  Replica.on_reboot replica;
  (* Install the shadow-synced checkpoint as the slot's recovered state.
     [fetch_complete] handles the stale-standby edge itself: if the group's
     stable watermark overtook the shadow seqno while the handshake ran, it
     starts a differential fetch instead of resuming from unusable state. *)
  Replica.fetch_complete replica ~seq:ss.ss_synced_seq ~app_digest:ss.ss_root
    ~client_rows:ss.ss_client_rows;
  (* Catch up past the shadow watermark when the group moved on but the log
     gap is still fetchable. *)
  (match Replica.fetch_target replica with
  | Some (seq, digest)
    when (not (r.ops.fetching slot))
         && seq > ss.ss_synced_seq
         && Replica.status replica <> Replica.Fetching ->
    Replica.force_fetch replica ~seq ~digest
  | Some _ | None -> ());
  if not (r.ops.fetching slot) then fetch_done r slot;
  r.recovering.(slot) <- false;
  (* Demotion: the old slot machine is now the next standby.  Wipe its
     suspect warm state — restart the implementation, recompute every
     digest, drop cached checkpoints — and let the shadow-sync timer
     refetch from scratch at leisure. *)
  ss.ss_synced_seq <- -1;
  ss.ss_client_rows <- [];
  r.ops.restart sb;
  r.ops.discard_below sb max_int;
  trace_event r "recovery.promote_done" [ ("sb", string_of_int sb); ("slot", string_of_int slot) ]

let promote_done r slot =
  match List.assoc_opt slot r.pending with
  | None -> ()
  | Some sb -> (
    r.pending <- List.filter (fun (s, _) -> s <> slot) r.pending;
    match r.syncs.(sb) with
    | Some ss when Engine.node_is_up r.engine sb && synced ss -> complete_promotion r ~slot ~sb ss
    | Some _ | None ->
      (* Promotion race: the standby died (or was wiped) mid-handshake.
         The slot machine is already down, so fall back to the in-place
         path — reboot it and differential-fetch as usual.  The episode's
         timeline keeps [tl_migrated = true] with a null handoff, which is
         exactly what happened: an attempted migration that degraded. *)
      count r "base.standby.promotions_aborted";
      trace_event r "recovery.promote_aborted"
        [ ("sb", string_of_int sb); ("slot", string_of_int slot) ];
      set_timer r ~node:r.orchestrator ~after_us:r.reboot_us (fun () -> reboot_done r slot))

(* Begin promoting standby [sb] into replica slot [slot]: take the slot
   machine offline and start the role-switch handshake (key distribution,
   address takeover), modelled as a [promote_us] delay on the orchestrator.
   If the pair is not promotable right now, degrade to in-place recovery —
   the watchdog's job is to recover the slot, one way or the other. *)
let promote ?promote_us r ~slot ~standby:sb =
  let promote_us = Option.value promote_us ~default:r.promote_us in
  let promotable =
    (not r.recovering.(slot))
    && (match r.syncs.(sb) with Some ss -> usable r sb ss | None -> false)
    && not (List.mem_assoc slot r.pending)
  in
  if not promotable then recover_now r slot
  else begin
    start_episode r slot ~migrated:true;
    trace_event r "recovery.promote_start"
      [ ("sb", string_of_int sb); ("slot", string_of_int slot) ];
    (* The standby's shadow state must stay frozen at its last completed
       sync for the duration of the handshake. *)
    abandon_fetch r slot;
    r.ops.drop_fetch sb;
    Engine.set_node_up r.engine slot false;
    r.pending <- (slot, sb) :: r.pending;
    set_timer r ~node:r.orchestrator ~after_us:promote_us (fun () -> promote_done r slot)
  end

let promote_now ?promote_us r slot =
  match eligible_standby r with
  | Some sb -> promote ?promote_us r ~slot ~standby:sb
  | None -> recover_now r slot

(* --- the watchdog ------------------------------------------------------------- *)

let rec watchdog r rid =
  if r.on then begin
    (if r.migrate then
       (* The migrating watchdog never takes a healthy replica down without
          a warm spare to put in its place: with no eligible standby (pool
          still cold, all mid-handshake, or all crashed) it skips the round
          and retries next period.  Degrading to an in-place reboot here
          would turn a cold pool into gratuitous downtime — that fallback
          is reserved for promotion races, where the slot machine is
          already down. *)
       match eligible_standby r with
       | Some sb -> promote r ~slot:rid ~standby:sb
       | None ->
         count r "base.standby.rounds_skipped";
         trace_event r "recovery.promote_skipped" [ ("slot", string_of_int rid) ]
     else recover_now r rid);
    set_timer r ~node:r.orchestrator ~after_us:r.period_us (fun () -> watchdog r rid)
  end

let disable r = r.on <- false

let enable ?(reboot_us = 2_000_000) ?promote_us ?(migrate = false) ~period_us r =
  (* Reintegration rebuilds and re-fetches the node's single repo; teaching
     it to repair every per-shard cell is future work, so the watchdog is
     gated to unsharded systems (as is the standby pool). *)
  Base_util.Invariant.require
    (Types.n_shards r.config = 1)
    "Runtime.enable_proactive_recovery: requires an unsharded object space";
  r.period_us <- period_us;
  r.reboot_us <- reboot_us;
  Option.iter (fun v -> r.promote_us <- v) promote_us;
  r.migrate <- migrate && r.config.Types.s > 0;
  r.on <- true;
  (* Stagger: replica i's watchdog first fires at (i+1) * period / n, so
     less than 1/3 of the replicas are ever recovering together. *)
  let n = r.config.Types.n in
  for rid = 0 to n - 1 do
    set_timer r ~node:r.orchestrator ~after_us:(period_us / n * (rid + 1)) (fun () ->
        watchdog r rid)
  done
