(* Warm-standby pool and migration-based recovery: shadow sync correctness,
   promotion digest equality, poisoning resistance, freshest-standby
   selection, promotion-race fallback, and chaos with the standby fault
   verbs. *)

open Helpers
module Runtime = Base_core.Runtime
module Objrepo = Base_core.Objrepo
module Replica = Base_bft.Replica
module Types = Base_bft.Types
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Metrics = Base_obs.Metrics

let settle sys seconds =
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec seconds))
    (Runtime.engine sys)

let drive_load sys ~ops ~gap_ms =
  for i = 0 to ops - 1 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "load%d" i));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms gap_ms))
  done

let converged sys =
  let rs =
    Array.map (fun node -> Objrepo.current_root node.Runtime.repo) (Runtime.replicas sys)
  in
  Array.for_all (fun r -> Base_crypto.Digest_t.equal r rs.(0)) rs

let sync_state node =
  match node.Runtime.standby with
  | Some ss -> ss
  | None -> Alcotest.fail "node is not a standby"

let counter_value sys name = Metrics.counter_value (Metrics.counter (Runtime.metrics sys) name)

let test_shadow_sync_tracks_watermark () =
  (* The standby chases the stable checkpoint without ever joining the
     protocol: it syncs past several checkpoint boundaries, accumulates
     shadow bytes, executes nothing and votes in nothing. *)
  let sys, _ = make_system ~seed:61L ~checkpoint_period:8 ~standbys:1 () in
  drive_load sys ~ops:30 ~gap_ms:120;
  settle sys 1.0;
  let sb = Helpers.standby sys 4 in
  let ss = sync_state sb in
  Alcotest.(check bool)
    (Printf.sprintf "standby synced well past the first checkpoint (seq %d)" ss.Runtime.ss_synced_seq)
    true
    (ss.Runtime.ss_synced_seq >= 16);
  Alcotest.(check bool) "shadow bytes accounted" true (counter_value sys "base.standby.shadow_bytes" > 0);
  let stats = Replica.stats sb.Runtime.replica in
  Alcotest.(check int) "standby executed nothing" 0 stats.Replica.executed;
  Alcotest.(check int) "standby never promoted" 0 ss.Runtime.ss_promotions;
  (* The synced root is byte-equal to the group's digest at that
     checkpoint: fetch_target on the standby certifies what f+1 active
     replicas vouched for, and the shadow sync verified every piece of it. *)
  Alcotest.(check bool) "group still live and converged" true (converged sys)

let test_promotion_digest_equality () =
  (* Promote into slot 1 while the system is quiescent: the promoted
     machine's abstract state must be byte-identical to the live replicas'
     at the promotion point, with no catch-up fetch needed. *)
  let sys, kvs = make_system ~seed:62L ~checkpoint_period:8 ~standbys:1 () in
  drive_load sys ~ops:20 ~gap_ms:50;
  settle sys 1.0;
  let pool = Helpers.standby sys 4 in
  let synced_seq = (sync_state pool).Runtime.ss_synced_seq in
  Alcotest.(check bool) "standby warm before promotion" true (synced_seq > 0);
  Runtime.promote_now sys 1;
  settle sys 2.0;
  Alcotest.(check int) "pool slot promoted once" 1 (sync_state pool).Runtime.ss_promotions;
  Alcotest.(check bool) "promoted state digest-equal to live replicas" true (converged sys);
  (* The physical machine swap happened: slot 1 now executes on the kv that
     was built for node id 4, and the demoted machine was wiped. *)
  ignore (set sys ~client:0 3 "after-promotion");
  settle sys 1.0;
  Alcotest.(check string) "writes land on the promoted machine" "after-promotion"
    kvs.(4).slots.(3);
  Alcotest.(check bool) "demoted machine was restarted for wiping" true (kvs.(1).restarts >= 1);
  (* Episode accounting: a migrated timeline with a handoff far below the
     full window, and total durations (no raw sentinels). *)
  let tl =
    match List.rev (Runtime.recovery_timelines sys) with
    | tl :: _ -> tl
    | [] -> Alcotest.fail "no recovery episode recorded"
  in
  Alcotest.(check bool) "episode is a migration" true tl.Runtime.tl_migrated;
  (match (Runtime.timeline_handoff_us tl, Runtime.timeline_window_us tl) with
  | Some handoff, Some window ->
    Alcotest.(check bool)
      (Printf.sprintf "handoff (%dus) <= window (%dus)" handoff window)
      true (handoff <= window);
    Alcotest.(check bool) "staleness recorded" true (tl.Runtime.tl_staleness_seqs >= 0)
  | _ -> Alcotest.fail "migration episode did not complete")

let test_byzantine_source_cannot_poison_shadow_sync () =
  (* Corrupt replica 0's objects behind the wrapper AND recompute its
     digests, so it serves self-consistent garbage for the certified
     checkpoint (the corruption bypasses the copy-on-write upcall, exactly
     like a faulty implementation).  A standby that was down the whole time
     must then cold-sync the full state, striping fetches over all four
     sources: every piece is verified against the f+1-certified digest, so
     replica 0's pieces are rejected and refetched from honest sources. *)
  let sys, kvs = make_system ~seed:63L ~checkpoint_period:8 ~standbys:1 () in
  let plan text =
    match Base_sim.Faultplan.parse text with Ok p -> p | Error e -> Alcotest.fail e
  in
  Runtime.apply_faultplan sys (plan "at 1us crash-standby 4\n");
  drive_load sys ~ops:16 ~gap_ms:50;
  settle sys 0.5;
  (* Checkpoint 16 is certified by the honest majority; no further sequence
     numbers are assigned below, so replica 0 never crosses another
     checkpoint boundary and never notices (or repairs) its own divergence:
     the poison stays live in what it serves. *)
  for i = 1 to 7 do
    kvs.(0).slots.(i) <- Printf.sprintf "POISON%d" i
  done;
  Objrepo.rebuild_all_digests (Runtime.replica sys 0).Runtime.repo;
  Runtime.apply_faultplan sys (plan "at 1us reboot 4\n");
  settle sys 2.0;
  let ss = sync_state (Helpers.standby sys 4) in
  Alcotest.(check bool)
    (Printf.sprintf "cold standby synced despite the poisoner (seq %d)" ss.Runtime.ss_synced_seq)
    true
    (ss.Runtime.ss_synced_seq >= 16);
  let st = Runtime.st_totals sys in
  Alcotest.(check bool)
    (Printf.sprintf "poisoned pieces were rejected (%d)" (Base_core.State_transfer.rejected st))
    true
    (Base_core.State_transfer.rejected st > 0);
  (* Promote and verify the synced state matches the honest majority, not
     the poisoner. *)
  Runtime.promote_now sys 1;
  settle sys 2.0;
  Alcotest.(check string) "promoted machine holds the honest value" "load15"
    kvs.(4).slots.(7);
  Alcotest.(check string) "promoted machine never saw the poison" "load14"
    kvs.(4).slots.(6)

let test_stale_standby_skipped_for_fresher () =
  (* Two standbys; one goes dark while the watermark advances, so its
     shadow state is stale.  promote_now must pick the fresher one. *)
  let sys, _ = make_system ~seed:64L ~checkpoint_period:8 ~standbys:2 () in
  drive_load sys ~ops:12 ~gap_ms:120;
  settle sys 0.5;
  let a = Helpers.standby sys 4 and b = Helpers.standby sys 5 in
  Alcotest.(check bool) "both standbys warm" true
    ((sync_state a).Runtime.ss_synced_seq > 0 && (sync_state b).Runtime.ss_synced_seq > 0);
  Engine.set_node_up (Runtime.engine sys) 4 false;
  drive_load sys ~ops:16 ~gap_ms:120;
  Engine.set_node_up (Runtime.engine sys) 4 true;
  Alcotest.(check bool) "standby 4 now stale" true
    ((sync_state a).Runtime.ss_synced_seq < (sync_state b).Runtime.ss_synced_seq);
  Runtime.promote_now sys 2;
  settle sys 2.0;
  Alcotest.(check int) "fresher standby promoted" 1 (sync_state b).Runtime.ss_promotions;
  Alcotest.(check int) "stale standby skipped" 0 (sync_state a).Runtime.ss_promotions;
  Alcotest.(check bool) "group converged after migration" true (converged sys)

let test_promotion_race_falls_back_in_place () =
  (* The chosen standby crashes mid-handshake: the promotion aborts and the
     slot still recovers, in place. *)
  let sys, _ = make_system ~seed:65L ~checkpoint_period:8 ~standbys:1 () in
  drive_load sys ~ops:12 ~gap_ms:60;
  settle sys 0.5;
  Runtime.promote_now sys 1;
  (* The handshake is pending (promote_us of virtual time); kill the
     standby before it completes. *)
  Engine.set_node_up (Runtime.engine sys) 4 false;
  settle sys 3.0;
  drive_load sys ~ops:4 ~gap_ms:60;
  settle sys 2.0;
  Alcotest.(check bool) "promotion aborted" true
    (counter_value sys "base.standby.promotions_aborted" >= 1);
  Alcotest.(check int) "no promotion completed" 0
    (sync_state (Helpers.standby sys 4)).Runtime.ss_promotions;
  let tl =
    match
      List.find_opt (fun tl -> tl.Runtime.tl_rid = 1) (Runtime.recovery_timelines sys)
    with
    | Some tl -> tl
    | None -> Alcotest.fail "no episode for slot 1"
  in
  Alcotest.(check bool) "episode records the attempted migration" true tl.Runtime.tl_migrated;
  Alcotest.(check bool) "no handoff milestone (degraded to in-place reboot)" true
    (Runtime.timeline_handoff_us tl = None);
  Alcotest.(check bool) "slot recovered anyway" true
    (Runtime.timeline_window_us tl <> None);
  Alcotest.(check bool) "group converged" true (converged sys)

let test_faultplan_standby_chaos () =
  (* The standby fault verbs drive a crash / reboot / promotion-race script
     through the plan executor without hurting liveness. *)
  let sys, _ = make_system ~seed:66L ~checkpoint_period:8 ~standbys:2 () in
  drive_load sys ~ops:10 ~gap_ms:60;
  settle sys 0.5;
  let plan =
    match
      Base_sim.Faultplan.parse
        "at 100ms crash-standby 4\n\
         at 300ms promote 4   # standby 4 is down: degrades to in-place\n\
         at 500ms reboot 4\n\
         at 900ms promote 5\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Runtime.apply_faultplan sys plan;
  drive_load sys ~ops:25 ~gap_ms:120;
  settle sys 4.0;
  (* promote 4 fired while standby 4 was down, so that roll degraded to an
     in-place recovery of slot 0; promote 5 promoted the warm standby into
     slot 1 (the roll cursor advanced). *)
  Alcotest.(check int) "standby 5 promoted" 1
    (sync_state (Helpers.standby sys 5)).Runtime.ss_promotions;
  Alcotest.(check bool) "two episodes recorded" true
    (List.length (Runtime.recovery_timelines sys) >= 2);
  Alcotest.(check bool) "system alive" true (String.equal (set sys ~client:0 0 "alive") "ok");
  settle sys 1.0;
  Alcotest.(check bool) "states converged" true (converged sys)

let test_rolling_migration_under_watchdog () =
  (* The migrating watchdog rolls every slot through promotion; the demoted
     machines re-enter the pool, re-sync, and serve later rolls.  While the
     pool is still cold (before the first certified checkpoint) the watchdog
     must skip rounds rather than degrade to in-place reboots. *)
  let sys, _ = make_system ~seed:67L ~checkpoint_period:8 ~standbys:2 () in
  Runtime.enable_proactive_recovery ~migrate:true ~reboot_us:200_000 ~promote_us:10_000
    ~period_us:1_000_000 sys;
  drive_load sys ~ops:40 ~gap_ms:120;
  Runtime.disable_proactive_recovery sys;
  settle sys 3.0;
  let migrations =
    List.length
      (List.filter
         (fun tl -> tl.Runtime.tl_migrated && Runtime.timeline_handoff_us tl <> None)
         (Runtime.recovery_timelines sys))
  in
  Alcotest.(check bool)
    (Printf.sprintf "several migration episodes completed (%d)" migrations)
    true (migrations >= 4);
  Alcotest.(check bool) "cold-pool rounds were skipped, not degraded" true
    (counter_value sys "base.standby.rounds_skipped" >= 1);
  Alcotest.(check bool) "system alive after rolling migration" true
    (String.equal (set sys ~client:0 0 "alive") "ok");
  settle sys 1.0;
  Alcotest.(check bool) "states converged" true (converged sys)

let suite =
  [
    Alcotest.test_case "shadow sync tracks the watermark" `Quick
      test_shadow_sync_tracks_watermark;
    Alcotest.test_case "promotion is digest-exact" `Quick test_promotion_digest_equality;
    Alcotest.test_case "byzantine source cannot poison shadow sync" `Quick
      test_byzantine_source_cannot_poison_shadow_sync;
    Alcotest.test_case "stale standby skipped for fresher" `Quick
      test_stale_standby_skipped_for_fresher;
    Alcotest.test_case "promotion race falls back in place" `Quick
      test_promotion_race_falls_back_in_place;
    Alcotest.test_case "faultplan standby chaos" `Quick test_faultplan_standby_chaos;
    Alcotest.test_case "rolling migration under watchdog" `Quick
      test_rolling_migration_under_watchdog;
  ]
