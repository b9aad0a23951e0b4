module Digest = Base_crypto.Digest_t
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Auth = Base_crypto.Auth
module Metrics = Base_obs.Metrics

open Cell

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

type t = {
  engine : msg Engine.t;
  config : Types.config;
  chains : Auth.keychain array;
  metrics : Metrics.t;
  trace : Base_obs.Trace.t;
  orchestrator : int;
  rows : replica_node array array;  (* [rows.(shard).(rid)]: the active cells *)
  (* Per node id, over the whole n + s group: the shard-0 row of cells
     followed by the standbys. *)
  cells : replica_node array;
  recovering : bool array;
  episodes : recovery_timeline option array;  (* the episode waiting for its milestones *)
  episode_from : (int * int) array;
      (* the tally's objects and bytes when the open episode's fetch began *)
  mutable timelines : recovery_timeline list;  (* newest first *)
  mutable period_us : int;
  mutable reboot_us : int;
  mutable promote_us : int;  (* simulated role-switch handshake time *)
  mutable migrate : bool;  (* the watchdog recovers by promotion, not reboot *)
  mutable on : bool;
  mutable pending : (int * int) list;  (* (slot, standby) handshakes *)
}

let create ~config ~engine ~chains ~metrics ~trace ~orchestrator ~standbys rows =
  let cells = Array.append rows.(0) standbys in
  let group = Array.length cells in
  {
    engine;
    config;
    chains;
    metrics;
    trace;
    orchestrator;
    rows;
    cells;
    recovering = Array.make group false;
    episodes = Array.make group None;
    episode_from = Array.make group (0, 0);
    timelines = [];
    period_us = 0;
    reboot_us = 2_000_000;
    promote_us = 30_000;
    migrate = false;
    on = false;
    pending = [];
  }

let timelines r = List.rev r.timelines

let now r = Engine.now r.engine

let trace_event r name attrs = Base_obs.Trace.event r.trace ~ts:(now r) ~name attrs

let count r name = Metrics.incr (Metrics.counter r.metrics name)

let set_timer r ~node ~after_us fire =
  ignore (Engine.set_timer r.engine ~node ~after:(Sim_time.of_us after_us) fire)

(* The episode's fetch traffic is what the cell's tally gained since
   [mark_episode]. *)
let mark_episode r rid =
  let tally = r.cells.(rid).recovery_stats.fetched in
  r.episode_from.(rid) <- (tally.State_transfer.objects_fetched, tally.State_transfer.bytes_fetched)

let fetch_done r rid =
  match r.episodes.(rid) with
  | Some tl ->
    let tally = r.cells.(rid).recovery_stats.fetched in
    let objects, bytes = r.episode_from.(rid) in
    tl.tl_fetch_done_us <- now r;
    tl.tl_objects <- tally.State_transfer.objects_fetched - objects;
    tl.tl_bytes <- tally.State_transfer.bytes_fetched - bytes;
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

(* --- the fetch driver --------------------------------------------------------- *)

let st_send r ~src ~dst ~shard body =
  Engine.send r.engine ~src ~dst (St { from = src; shard; body })

(* Abandon the current fetch and restart against the freshest certified
   checkpoint — the escape hatch for a garbage-collected target, a target
   digest we can no longer verify anything against, or an inverse
   abstraction that failed to reproduce the certified state.  A standby has
   no protocol status to repair and no urgency: dropping the fetcher is
   enough, the next shadow-sync tick re-targets on its own. *)
let retarget_fetch r node ~reason =
  node.fetcher <- None;
  count r ("base.st.retarget." ^ reason);
  trace_event r "st.retarget" [ ("reason", reason); ("rid", string_of_int node.rid) ];
  if not (Types.is_standby r.config node.rid) then begin
    Replica.abort_fetch node.replica;
    Replica.initiate_fetch node.replica
  end

(* Retry/stall-poll cadence for an active fetch.  Under load the group
   certifies a fresh checkpoint every few tens of milliseconds, so a fetch
   that loses the race with garbage collection must notice and re-target on
   that timescale: a coarse retry period quantizes every unlucky fetch —
   and hence the recovery window — up to multiples of itself.  Each chain
   drives only the unfinished fetcher it was armed for: once the cell has
   dropped, replaced or finished that fetcher, its tick does nothing, and
   the next fetcher runs on its own chain. *)
let retry_us = 50_000

(* The longest wait between re-fetches after inverse divergences when no
   periodic recovery runs.  A re-fetch can only come out clean once the
   certified state has moved off whatever the local implementation gets
   wrong, so a divergence that persists is retried ever more rarely; the
   cap bounds how long a replica whose trigger is gone stays out of the
   group.  64 retry periods: a persistent divergence costs one fetch per
   3.2 s instead of one per 50 ms. *)
let divergence_cap_us = 3_200_000

let rec arm_retry r node fetcher =
  set_timer r ~node:node.rid ~after_us:retry_us (fun () -> st_retry_tick r node fetcher)

and st_retry_tick r node fetcher =
  match node.fetcher with
  | Some current when current == fetcher && not (State_transfer.finished fetcher) -> (
    let certified =
      match Replica.fetch_target node.replica with Some (seq, _) -> seq | None -> -1
    in
    match State_transfer.retry ~certified fetcher with
    | State_transfer.Continue -> arm_retry r node fetcher
    | State_transfer.Retarget reason -> retarget_fetch r node ~reason)
  | Some _ | None -> ()

(* The install of the cell's current fetch diverged.  Keep the finished
   fetcher (the cell is still fetching) and re-target it after a wait that
   starts at one retry period and doubles with each divergence since the
   last clean install, up to the recovery period when periodic recovery
   runs (the next recovery re-fetches anyway) or [divergence_cap_us]. *)
let back_off r node fetcher =
  node.divergences <- node.divergences + 1;
  let cap = if r.on then r.period_us else divergence_cap_us in
  let wait = min cap (retry_us lsl min 16 (node.divergences - 1)) in
  set_timer r ~node:node.rid ~after_us:wait (fun () ->
      match node.fetcher with
      | Some current when current == fetcher -> retarget_fetch r node ~reason:"inverse-divergence"
      | Some _ | None -> ())

(* Fetch the certified checkpoint [(seq, digest)] into the cell's repo and
   run [on_installed] once it is installed and registered: the recovery
   path and the standby shadow sync differ only in that continuation.
   Sources are always the active replicas (standbys are never
   authoritative). *)
let launch_fetch r node ~seq ~digest ~on_installed =
  let fetcher =
    State_transfer.start ~window:r.config.Types.st_window ~metrics:r.metrics
      ~trace:(fun name attrs -> trace_event r name (("rid", string_of_int node.rid) :: attrs))
      ~tally:node.recovery_stats.fetched ~repo:node.repo
      ~sources:(List.filter (fun id -> id <> node.rid) (Types.replica_ids r.config))
      ~target_seq:seq ~target_digest:digest
      ~send:(fun ~dst body -> st_send r ~src:node.rid ~dst ~shard:node.shard body)
      ~on_complete:(fun ~seq ~app_root ~client_rows ->
        (* Register the transferred checkpoint so this node can serve it. *)
        let root = Objrepo.take_checkpoint node.repo ~seq ~client_rows in
        if Digest.equal root app_root then begin
          node.fetcher <- None;
          node.divergences <- 0;
          on_installed ~seq ~app_root ~client_rows
        end
        else begin
          (* The inverse abstraction produced a state whose digest does not
             match the certified checkpoint: the local implementation is
             faulty in a way reinstallation did not mask.  Degrade
             gracefully — count it and re-run the transfer — instead of
             crashing the replica, which would turn one faulty node into a
             liveness hit for the group.  An active cell backs off
             before it re-targets; a standby leaves the re-run to its next
             shadow-sync tick. *)
          count r "st.inverse_divergence";
          if Types.is_standby r.config node.rid then node.fetcher <- None
          else Option.iter (back_off r node) node.fetcher
        end)
      ()
  in
  node.fetcher <- Some fetcher;
  arm_retry r node fetcher

(* A recovering replica heard of a checkpoint above its fetch target
   before any source answered the fetch's head.  The replies to its reboot
   STATUS carry such checkpoints: its first fetch targets the newest
   checkpoint it knew before the reboot, which the group has
   garbage-collected since.  Re-target now, not after a silent retry
   round.  Other fetches keep the round: their target was the newest
   certified one when they began. *)
let checkpoint_heard r node =
  match node.fetcher with
  | Some fetcher when Option.is_some r.episodes.(node.rid) ->
    let certified =
      match Replica.fetch_target node.replica with Some (seq, _) -> seq | None -> -1
    in
    if State_transfer.superseded ~certified fetcher then retarget_fetch r node ~reason:"superseded"
  | Some _ | None -> ()

let start_fetch r node ~seq ~digest =
  launch_fetch r node ~seq ~digest ~on_installed:(fun ~seq ~app_root ~client_rows ->
      fetch_done r node.rid;
      Replica.fetch_complete node.replica ~seq ~app_digest:app_root ~client_rows)

let handle_st r node ~from body =
  match body with
  | State_transfer.Fetch_head _ | State_transfer.Fetch_meta _ | State_transfer.Fetch_obj _ -> (
    match State_transfer.serve node.repo body with
    | Some reply -> st_send r ~src:node.rid ~dst:from ~shard:node.shard reply
    | None -> ())
  | State_transfer.Head_reply _ | State_transfer.Meta_reply _ | State_transfer.Obj_reply _ -> (
    match node.fetcher with
    | Some fetcher -> (
      match State_transfer.handle_reply fetcher ~from body with
      | State_transfer.Continue -> ()
      | State_transfer.Retarget reason -> retarget_fetch r node ~reason)
    | None -> ())

(* The machine goes down: its in-flight fetch dies with it. *)
let abandon_fetch node =
  node.fetcher <- None;
  Replica.abort_fetch node.replica

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
let start_shadow_sync r node ss ~seq ~digest =
  let tally = node.recovery_stats.fetched in
  let bytes_from = tally.State_transfer.bytes_fetched in
  launch_fetch r node ~seq ~digest ~on_installed:(fun ~seq ~app_root ~client_rows ->
      Objrepo.discard_below node.repo seq;
      let digest = Replica.checkpoint_digest ~app_digest:app_root ~client_rows in
      Replica.standby_note_synced node.replica ~seq ~digest;
      ss.ss_synced_seq <- seq;
      ss.ss_synced_at_us <- now r;
      ss.ss_root <- app_root;
      ss.ss_client_rows <- client_rows;
      let bytes = tally.State_transfer.bytes_fetched - bytes_from in
      Metrics.incr ~by:bytes (Metrics.counter r.metrics "base.standby.shadow_bytes");
      trace_event r "standby.synced"
        [
          ("bytes", string_of_int bytes);
          ("rid", string_of_int node.rid);
          ("seq", string_of_int seq);
        ])

let rec arm_shadow r rid =
  set_timer r ~node:rid ~after_us:shadow_sync_period_us (fun () -> shadow_tick r rid)

and shadow_tick r rid =
  (* A sync in flight is driven by its own retry chain. *)
  let node = r.cells.(rid) in
  (if Option.is_none node.fetcher then
     match (Replica.fetch_target node.replica, node.standby) with
     | Some (seq, digest), Some ss when seq > ss.ss_synced_seq ->
       start_shadow_sync r node ss ~seq ~digest
     | (Some _ | None), _ -> ());
  arm_shadow r rid

(* Node [rid] is back up after a crash, which took its timers with it:
   the protocol timers of each of its active cells, each fetch's retry
   chain, a standby's shadow-sync ticks.  An active cell's fetch that was
   in flight would sit wedged forever (status Fetching, no retries, no
   retarget), so it restarts against the freshest certified checkpoint; a
   standby drops its dead sync and restarts the ticks. *)
let rebooted r rid =
  if rid < r.config.Types.n then
    Array.iter
      (fun row ->
        let node = row.(rid) in
        Replica.on_reboot node.replica;
        if Option.is_some node.fetcher then retarget_fetch r node ~reason:"reboot")
      r.rows
  else if Types.is_standby r.config rid then begin
    r.cells.(rid).fetcher <- None;
    arm_shadow r rid
  end

(* --- in-place recovery -------------------------------------------------------- *)

let start_episode r rid ~migrated =
  r.recovering.(rid) <- true;
  let st = r.cells.(rid).recovery_stats in
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

(* Restart the implementation from its persistent state and recompute every
   object digest. *)
let restart node =
  node.wrapper.Service.restart ();
  Objrepo.rebuild_all_digests node.repo

let begin_reintegration r rid =
  (* The machine is back up: fresh session keys (stolen ones are now
     useless), restart the implementation from its persistent state, and
     recompute the abstraction function over the whole concrete state — the
     depth-first traversal of Section 3.4. *)
  Auth.refresh_keys r.chains rid;
  let node = r.cells.(rid) in
  restart node;
  mark_episode r rid;
  rebooted r rid;
  let replica = node.replica in
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
    abandon_fetch r.cells.(rid);
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
    (fun sb node ->
      match (node.standby, !best) with
      | Some ss, Some (_, best_seq) when usable r sb ss && best_seq < ss.ss_synced_seq ->
        best := Some (sb, ss.ss_synced_seq)
      | Some ss, None when usable r sb ss -> best := Some (sb, ss.ss_synced_seq)
      | (Some _ | None), _ -> ())
    r.cells;
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
  let slot_cell = r.cells.(slot) and sb_cell = r.cells.(sb) in
  let repo = slot_cell.repo and wrapper = slot_cell.wrapper in
  slot_cell.repo <- sb_cell.repo;
  slot_cell.wrapper <- sb_cell.wrapper;
  sb_cell.repo <- repo;
  sb_cell.wrapper <- wrapper;
  ss.ss_promotions <- ss.ss_promotions + 1;
  let lag = Int64.sub (now r) ss.ss_synced_at_us in
  Metrics.observe (Metrics.histogram r.metrics "base.standby.lag_us") (Int64.to_float lag);
  let replica = slot_cell.replica in
  (match r.episodes.(slot) with
  | Some tl ->
    tl.tl_promote_done_us <- now r;
    tl.tl_staleness_us <- lag;
    let head =
      match Replica.fetch_target replica with Some (seq, _) -> seq | None -> ss.ss_synced_seq
    in
    tl.tl_staleness_seqs <- max 0 (head - ss.ss_synced_seq)
  | None -> ());
  mark_episode r slot;
  rebooted r slot;
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
    when Option.is_none slot_cell.fetcher
         && seq > ss.ss_synced_seq
         && Replica.status replica <> Replica.Fetching ->
    Replica.force_fetch replica ~seq ~digest
  | Some _ | None -> ());
  if Option.is_none slot_cell.fetcher then fetch_done r slot;
  r.recovering.(slot) <- false;
  (* Demotion: the old slot machine is now the next standby.  Wipe its
     suspect warm state — restart the implementation, recompute every
     digest, drop cached checkpoints — and let the shadow-sync timer
     refetch from scratch at leisure. *)
  ss.ss_synced_seq <- -1;
  ss.ss_client_rows <- [];
  restart sb_cell;
  Objrepo.discard_below sb_cell.repo max_int;
  trace_event r "recovery.promote_done" [ ("sb", string_of_int sb); ("slot", string_of_int slot) ]

let promote_done r slot =
  match List.assoc_opt slot r.pending with
  | None -> ()
  | Some sb -> (
    r.pending <- List.filter (fun (s, _) -> s <> slot) r.pending;
    match r.cells.(sb).standby with
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
    && (match r.cells.(sb).standby with Some ss -> usable r sb ss | None -> false)
    && not (List.mem_assoc slot r.pending)
  in
  if not promotable then recover_now r slot
  else begin
    start_episode r slot ~migrated:true;
    trace_event r "recovery.promote_start"
      [ ("sb", string_of_int sb); ("slot", string_of_int slot) ];
    (* The standby's shadow state must stay frozen at its last completed
       sync for the duration of the handshake. *)
    abandon_fetch r.cells.(slot);
    r.cells.(sb).fetcher <- None;
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
