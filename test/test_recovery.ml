(* Focused tests of the proactive-recovery and catch-up machinery: STATUS
   retransmission, rollback-and-replay repair, recovery under continuous
   load, key refresh, and the fetch bookkeeping the cells share with the
   runtime. *)

open Helpers
module Runtime = Base_core.Runtime
module Objrepo = Base_core.Objrepo
module State_transfer = Base_core.State_transfer
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time

let settle sys seconds =
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec seconds))
    (Runtime.engine sys)

let drive_load sys ~ops ~gap_ms =
  for i = 0 to ops - 1 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "load%d" i));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms gap_ms))
  done

let roots sys =
  Array.map (fun node -> Objrepo.current_root node.Runtime.repo) (Runtime.replicas sys)

let converged sys =
  let rs = roots sys in
  Array.for_all (fun r -> Base_crypto.Digest_t.equal r rs.(0)) rs

let test_status_refills_briefly_down_replica () =
  (* A replica that misses a handful of messages (no checkpoint boundary
     crossed) is refilled by STATUS retransmission, without state
     transfer. *)
  let sys, kvs = make_system ~seed:41L ~checkpoint_period:64 () in
  ignore (set sys ~client:0 0 "pre");
  Engine.set_node_up (Runtime.engine sys) 2 false;
  for i = 0 to 4 do
    ignore (set sys ~client:0 1 (Printf.sprintf "gap%d" i))
  done;
  Engine.set_node_up (Runtime.engine sys) 2 true;
  settle sys 2.0;
  let node2 = Runtime.replica sys 2 in
  Alcotest.(check int) "no state transfer needed" 0
    (Replica.stats node2.Runtime.replica).Replica.fetches;
  Alcotest.(check string) "caught up via retransmission" "gap4" kvs.(2).slots.(1)

let test_recovery_under_continuous_load () =
  let sys, _ = make_system ~seed:42L ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:80_000 ~period_us:1_200_000 sys;
  drive_load sys ~ops:60 ~gap_ms:150;
  Runtime.disable_proactive_recovery sys;
  settle sys 3.0;
  let total_recoveries =
    Array.fold_left
      (fun acc node -> acc + node.Runtime.recovery_stats.Runtime.recoveries)
      0 (Runtime.replicas sys)
  in
  Alcotest.(check bool)
    (Printf.sprintf "many recoveries happened (%d)" total_recoveries)
    true (total_recoveries >= 8);
  Alcotest.(check bool) "states converged" true (converged sys);
  (* And the service still works. *)
  Alcotest.(check string) "final op" "ok" (set sys ~client:0 0 "final")

let test_repair_of_corrupt_state () =
  (* Directly corrupt one replica's service state behind the wrapper's
     back; its digests still claim health (cached), but the recovery
     traversal recomputes them and state transfer repairs the damage. *)
  let sys, kvs = make_system ~seed:43L ~checkpoint_period:8 () in
  drive_load sys ~ops:20 ~gap_ms:50;
  kvs.(1).slots.(3) <- "CORRUPTED";
  (* The group is still fine (one faulty replica), reads are right. *)
  Alcotest.(check bool) "corruption invisible to clients" true
    (value_part (get sys ~client:0 3) <> "CORRUPTED");
  (* Keep load flowing and run replica 1 through recovery, then stop the
     watchdogs so the convergence check is not racing a fresh reboot. *)
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:800_000 sys;
  drive_load sys ~ops:30 ~gap_ms:120;
  Runtime.disable_proactive_recovery sys;
  drive_load sys ~ops:8 ~gap_ms:120;
  settle sys 3.0;
  Alcotest.(check bool) "corruption repaired" true (kvs.(1).slots.(3) <> "CORRUPTED");
  Alcotest.(check bool) "states converged" true (converged sys)

let test_recovery_refreshes_keys () =
  (* After recovery the replica has fresh MAC keys and still interoperates:
     operations keep completing after every replica recovered. *)
  let sys, _ = make_system ~seed:44L ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:600_000 sys;
  drive_load sys ~ops:25 ~gap_ms:120;
  Runtime.disable_proactive_recovery sys;
  Array.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d recovered" node.Runtime.rid)
        true
        (node.Runtime.recovery_stats.Runtime.recoveries >= 1))
    (Runtime.replicas sys);
  Alcotest.(check string) "system alive with refreshed keys" "ok" (set sys ~client:0 5 "alive")

let test_rollback_replay_exact () =
  (* Force a rollback-and-replay: recover a replica right after it executed
     past the latest certified checkpoint; afterwards all replicas agree
     and the service state reflects every executed op exactly once. *)
  let sys, kvs = make_system ~seed:45L ~checkpoint_period:8 () in
  drive_load sys ~ops:12 ~gap_ms:20;
  Runtime.recover_now ~reboot_us:100_000 sys 2;
  settle sys 1.5;
  drive_load sys ~ops:4 ~gap_ms:20;
  settle sys 3.0;
  Alcotest.(check bool) "converged after rollback+replay" true (converged sys);
  (* Slot 7 was last written by op 7 of the first batch; the replay must
     reproduce it exactly once, not lose or duplicate it. *)
  Alcotest.(check string) "replayed value correct" "load7" kvs.(2).slots.(7);
  Alcotest.(check string) "post-recovery value correct" "load3" kvs.(2).slots.(3)

let test_staggering_limits_concurrent_recoveries () =
  let sys, _ = make_system ~seed:46L ~checkpoint_period:8 () in
  (* Watchdogs fire at period/4 offsets; with an 80 ms reboot and 1 s
     period, at most one replica is ever down. *)
  Runtime.enable_proactive_recovery ~reboot_us:80_000 ~period_us:1_000_000 sys;
  let max_down = ref 0 in
  for _ = 1 to 40 do
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 100));
    let down = ref 0 in
    for r = 0 to 3 do
      if not (Engine.node_is_up (Runtime.engine sys) r) then incr down
    done;
    max_down := max !max_down !down
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at most 1 replica down at once (saw %d)" !max_down)
    true (!max_down <= 1)

let test_retry_chain_drives_only_its_fetcher () =
  (* Replica 3 fetches the current checkpoint (fetch A), and as soon as A
     has finished, well inside A's first 50 ms retry period, starts a
     second fetch (B) behind a partition.  B gets no reply, so its own
     retry chain retries it once per 50 ms; A's leftover tick must not
     retry it as well. *)
  let sys, _ = make_system ~seed:47L ~checkpoint_period:8 () in
  drive_load sys ~ops:10 ~gap_ms:20;
  settle sys 0.5;
  let engine = Runtime.engine sys in
  let node = Runtime.replica sys 3 in
  let fetch () =
    match Replica.fetch_target node.Runtime.replica with
    | Some (seq, digest) -> Replica.force_fetch node.Runtime.replica ~seq ~digest
    | None -> Alcotest.fail "no certified checkpoint"
  in
  let a_start = Runtime.now sys in
  fetch ();
  Alcotest.(check bool) "fetch A in flight" true (Option.is_some node.Runtime.fetcher);
  while Option.is_some node.Runtime.fetcher && Engine.step engine do
    ()
  done;
  Alcotest.(check bool) "fetch A finished before its first retry" true
    Sim_time.(Runtime.now sys < add a_start (of_ms 50));
  Engine.partition engine [ 3 ] [ 0; 1; 2 ];
  let retries () = node.Runtime.recovery_stats.Runtime.fetched.State_transfer.retries in
  let before = retries () in
  fetch ();
  Alcotest.(check bool) "fetch B in flight" true (Option.is_some node.Runtime.fetcher);
  (* Two retry periods, short of the third round that re-targets B. *)
  settle sys 0.12;
  Alcotest.(check int) "one retry per 50 ms" 2 (retries () - before)

let test_timeline_counts_the_completing_reply () =
  (* Replica 2 reboots while the group writes, so its recovery fetches the
     objects it missed.  The episode's timeline is stamped when the fetch
     completes and must include the reply that completed it. *)
  let sys, _ = make_system ~seed:48L ~checkpoint_period:8 () in
  drive_load sys ~ops:12 ~gap_ms:20;
  let tally = (Runtime.replica sys 2).Runtime.recovery_stats.Runtime.fetched in
  let objects = tally.State_transfer.objects_fetched
  and bytes = tally.State_transfer.bytes_fetched in
  Runtime.recover_now ~reboot_us:100_000 sys 2;
  drive_load sys ~ops:16 ~gap_ms:5;
  settle sys 2.0;
  match Runtime.recovery_timelines sys with
  | [ tl ] ->
    Alcotest.(check bool) "the episode completed" true (Runtime.timeline_window_us tl <> None);
    Alcotest.(check bool) "the fetch installed objects" true (tl.Runtime.tl_objects >= 1);
    Alcotest.(check int) "objects" (tally.State_transfer.objects_fetched - objects)
      tl.Runtime.tl_objects;
    Alcotest.(check int) "bytes" (tally.State_transfer.bytes_fetched - bytes) tl.Runtime.tl_bytes
  | tls -> Alcotest.failf "expected one recovery episode, got %d" (List.length tls)

let st_fields (s : State_transfer.stats) =
  [
    ("meta_fetched", s.State_transfer.meta_fetched);
    ("objects_fetched", s.State_transfer.objects_fetched);
    ("bytes_fetched", s.State_transfer.bytes_fetched);
    ("chunks_fetched", s.State_transfer.chunks_fetched);
    ("cache_hits", s.State_transfer.cache_hits);
    ("retries", s.State_transfer.retries);
    ("quarantines", s.State_transfer.quarantines);
    ("heads_rejected", s.State_transfer.heads_rejected);
    ("meta_rejected", s.State_transfer.meta_rejected);
    ("objects_rejected", s.State_transfer.objects_rejected);
  ]

(* [Runtime.st_totals] is the sum of every cell's lifetime fetch tally. *)
let check_st_totals what sys =
  let sum =
    List.fold_left
      (fun acc node ->
        List.map2
          (fun (k, a) (_, b) -> (k, a + b))
          acc
          (st_fields node.Runtime.recovery_stats.Runtime.fetched))
      (st_fields (State_transfer.fresh_stats ()))
      (Runtime.all_cells sys)
  in
  let totals = st_fields (Runtime.st_totals sys) in
  Alcotest.(check bool) (what ^ ": some objects were fetched") true
    (List.assoc "objects_fetched" totals > 0);
  List.iter2 (fun (k, total) (_, cells) -> Alcotest.(check int) (what ^ ": " ^ k) total cells) totals sum

let test_st_totals_sum_the_cells () =
  let sys, _ = make_system ~seed:49L ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:80_000 ~period_us:1_200_000 sys;
  drive_load sys ~ops:40 ~gap_ms:100;
  Runtime.disable_proactive_recovery sys;
  settle sys 2.0;
  (* Twelve writes, across a checkpoint, land while replica 3 reboots, so
     its reintegration fetches the objects they changed. *)
  Runtime.recover_now ~reboot_us:100_000 sys 3;
  drive_load sys ~ops:12 ~gap_ms:2;
  settle sys 1.0;
  check_st_totals "recovery run" sys;
  let sys, _ = make_system ~seed:50L ~checkpoint_period:8 ~standbys:1 () in
  drive_load sys ~ops:24 ~gap_ms:20;
  Runtime.promote_now ~promote_us:20_000 sys 1;
  drive_load sys ~ops:16 ~gap_ms:20;
  settle sys 1.0;
  check_st_totals "standby run" sys;
  (* Sharded: node 3 misses more than a log window in both shards and
     catches up by one fetch per shard cell. *)
  let { Base_workload.Systems.reg_runtime = sys; _ } =
    Base_workload.Systems.make_registers ~seed:51L ~shards:2 ~n_objects:8 ~checkpoint_period:4 ()
  in
  let write round i = ignore (set sys ~client:0 i (Printf.sprintf "r%d.%d" round i)) in
  Engine.set_node_up (Runtime.engine sys) 3 false;
  for round = 0 to 3 do
    for i = 0 to 7 do
      write round i
    done
  done;
  Engine.set_node_up (Runtime.engine sys) 3 true;
  for i = 0 to 7 do
    write 4 i
  done;
  settle sys 1.0;
  Alcotest.(check bool) "both shard cells of node 3 fetched" true
    (List.for_all
       (fun shard ->
         (Runtime.shard_replica sys ~shard 3).Runtime.recovery_stats.Runtime.fetched
           .State_transfer.objects_fetched > 0)
       [ 0; 1 ]);
  check_st_totals "sharded run" sys

(* Node 3 misses more than a log window, comes back and, at its next
   STATUS round, starts catching up with one fetch per cell.  A fault-plan
   crash lands while every cell of the node is mid-fetch and kills the
   fetches' retry chains, so the reboot must re-target each fetch, which
   then completes. *)
let crash_and_reboot_mid_fetch what sys =
  let engine = Runtime.engine sys in
  let cells = List.init (Runtime.n_shards sys) (fun shard -> Runtime.shard_replica sys ~shard 3) in
  let fetching () = List.for_all (fun node -> Option.is_some node.Runtime.fetcher) cells in
  Engine.set_node_up engine 3 false;
  for round = 0 to 3 do
    for i = 0 to 7 do
      ignore (set sys ~client:0 i (Printf.sprintf "r%d.%d" round i))
    done
  done;
  Engine.set_node_up engine 3 true;
  let deadline = Sim_time.add (Runtime.now sys) (Sim_time.of_sec 1.0) in
  let step_until cond =
    while
      (not (cond ())) && Sim_time.compare (Runtime.now sys) deadline < 0 && Engine.step engine
    do
      ()
    done
  in
  step_until fetching;
  Alcotest.(check bool) (what ^ ": every cell of node 3 fetching") true (fetching ());
  let plan =
    match Base_sim.Faultplan.parse "at 0ms crash 3\nat 40ms reboot 3" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  Runtime.apply_faultplan sys plan;
  step_until (fun () -> not (Engine.node_is_up engine 3));
  Alcotest.(check bool) (what ^ ": crashed mid-fetch") true (fetching ());
  settle sys 1.0;
  let retargets =
    List.filter
      (fun ev ->
        ev.Base_obs.Trace.name = "st.retarget"
        && List.assoc_opt "reason" ev.Base_obs.Trace.attrs = Some "reboot"
        && List.assoc_opt "rid" ev.Base_obs.Trace.attrs = Some "3")
      (Base_obs.Trace.events (Runtime.trace sys))
  in
  Alcotest.(check int) (what ^ ": one reboot re-target per cell") (List.length cells)
    (List.length retargets);
  List.iter
    (fun node ->
      let shard = node.Runtime.shard in
      let peer = Runtime.shard_replica sys ~shard 0 in
      let where = Printf.sprintf "%s, shard %d: " what shard in
      Alcotest.(check bool) (where ^ "fetch completed") true (Option.is_none node.Runtime.fetcher);
      Alcotest.(check bool) (where ^ "back to normal") true
        (Replica.status node.Runtime.replica = Replica.Normal);
      Alcotest.(check bool) (where ^ "state converged") true
        (Base_crypto.Digest_t.equal (Objrepo.current_root node.Runtime.repo)
           (Objrepo.current_root peer.Runtime.repo)))
    cells

let test_reboot_retargets_fetch () =
  let sys, _ = make_system ~seed:52L ~checkpoint_period:4 () in
  crash_and_reboot_mid_fetch "unsharded" sys;
  let { Base_workload.Systems.reg_runtime = sys; _ } =
    Base_workload.Systems.make_registers ~seed:53L ~shards:2 ~n_objects:8 ~checkpoint_period:4 ()
  in
  crash_and_reboot_mid_fetch "sharded" sys

(* Replica 3 misses four slots behind a partition, then fetches the
   checkpoint below them.  At the fetch's end it asks the group at once,
   so one round trip later it has executed everything the group ordered,
   instead of waiting for its next status tick, up to 250 ms on. *)
let test_fetch_end_catches_up () =
  let sys, _ = make_system ~seed:54L ~checkpoint_period:8 () in
  drive_load sys ~ops:8 ~gap_ms:5;
  let engine = Runtime.engine sys in
  let node = Runtime.replica sys 3 and peer = Runtime.replica sys 0 in
  Engine.partition engine [ 3 ] [ 0; 1; 2 ];
  for i = 0 to 3 do
    ignore (set sys ~client:0 1 (Printf.sprintf "gap%d" i))
  done;
  Engine.heal engine;
  (match Replica.fetch_target node.Runtime.replica with
  | Some (seq, digest) -> Replica.force_fetch node.Runtime.replica ~seq ~digest
  | None -> Alcotest.fail "no certified checkpoint");
  while Option.is_some node.Runtime.fetcher && Engine.step engine do
    ()
  done;
  let group = Replica.last_executed peer.Runtime.replica in
  Alcotest.(check bool) "behind the group when the fetch ends" true
    (Replica.last_executed node.Runtime.replica < group);
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_ms 1)) engine;
  Alcotest.(check int) "caught up within a round trip" group
    (Replica.last_executed node.Runtime.replica)

(* A kv service whose inverse abstraction is faulty: replica 3 installs
   "garbage" in place of every fetched object, so the installed state never
   hashes to the certified checkpoint.  Without periodic recovery, the k-th
   divergence since the last clean install re-targets the fetch
   50 ms * 2^(k-1) later, up to 3.2 s: the first re-target comes one retry
   period after the first divergence, and each wait after that doubles. *)
let test_divergence_retargets_with_backoff () =
  let config = Types.make_config ~checkpoint_period:8 ~log_window:16 ~f:1 ~n_clients:1 () in
  let make_wrapper rid =
    let kv, w = kv_wrapper ~n_objects:16 () in
    if rid <> 3 then w
    else
      {
        w with
        Base_core.Service.put_objs =
          (fun objs ->
            w.Base_core.Service.put_objs objs;
            List.iter (fun (j, _) -> kv.slots.(j) <- "garbage") objs);
      }
  in
  let sys =
    Runtime.create ~engine_config:(Runtime.engine_config ~seed:55L ()) ~config ~make_wrapper
      ~n_clients:1 ()
  in
  drive_load sys ~ops:8 ~gap_ms:5;
  Runtime.recover_now ~reboot_us:50_000 sys 3;
  (* Sixteen more writes, one after another, while stepping through 12 s
     and noting the time of every divergence. *)
  let rec load i =
    if i < 16 then
      Runtime.invoke sys ~client:0 ~operation:(Printf.sprintf "set:%d:more%d" (i mod 8) i)
        (fun _ -> load (i + 1))
  in
  load 0;
  let engine = Runtime.engine sys in
  let counter = Base_obs.Metrics.counter (Runtime.metrics sys) "st.inverse_divergence" in
  let deadline = Sim_time.add (Runtime.now sys) (Sim_time.of_sec 12.0) in
  let divergences = ref [] in
  while Sim_time.compare (Runtime.now sys) deadline < 0 && Engine.step engine do
    let n = Base_obs.Metrics.counter_value counter in
    if n > List.length !divergences then begin
      Alcotest.(check int) "one divergence per step" (List.length !divergences + 1) n;
      divergences := Runtime.now sys :: !divergences
    end
  done;
  let retargets =
    List.filter_map
      (fun ev ->
        if
          ev.Base_obs.Trace.name = "st.retarget"
          && List.assoc_opt "reason" ev.Base_obs.Trace.attrs = Some "inverse-divergence"
        then Some ev.Base_obs.Trace.ts
        else None)
      (Base_obs.Trace.events (Runtime.trace sys))
  in
  let divergences = List.rev !divergences in
  Alcotest.(check int) "one re-target per divergence but the last" (List.length divergences - 1)
    (List.length retargets);
  let waits_ms =
    List.map2
      (fun d r -> Int64.to_int (Int64.sub r d) / 1000)
      (List.filteri (fun i _ -> i < List.length retargets) divergences)
      retargets
  in
  Alcotest.(check (list int)) "each wait doubles, up to 3.2 s (ms)"
    [ 50; 100; 200; 400; 800; 1_600; 3_200; 3_200 ]
    waits_ms

(* E5's shape: closed-loop NFS writes while each replica reboots in turn
   (period 4 s, 100 ms down).  A reboot cancels the progress timer armed
   before it, which would otherwise fire whatever the progress since, so
   nobody changes view. *)
let test_staggered_recovery_keeps_the_view () =
  let sys, _ =
    Base_workload.Faults.throughput_trace ~duration_s:3.0 ~window_s:1.0
      ~recovery:(Some (4_000_000, 100_000)) ()
  in
  let view_changes =
    Array.fold_left
      (fun acc node -> acc + (Replica.stats node.Runtime.replica).view_changes)
      0
      (Runtime.replicas sys.Base_workload.Systems.runtime)
  in
  Alcotest.(check int) "view changes summed over replicas" 0 view_changes

(* The view-0 primary goes down for a 30 ms reboot just as the client
   writes, so only the backups receive the request.  Once the primary is
   back, its STATUS shows nothing in flight and f+1 backups vouch for the
   request, so the write completes without the client's retransmission,
   150 ms after it sent the request. *)
let test_write_during_primary_reboot () =
  let sys, _ = make_system ~seed:56L ~checkpoint_period:8 () in
  drive_load sys ~ops:6 ~gap_ms:5;
  let retransmissions () = (Base_bft.Client.stats (Runtime.client sys 0)).retransmissions in
  let before = retransmissions () in
  Runtime.recover_now ~reboot_us:30_000 sys 0;
  let sent = Runtime.now sys in
  ignore (set sys ~client:0 1 "during");
  Alcotest.(check int) "no retransmission" before (retransmissions ());
  Alcotest.(check bool) "done within the client's timeout" true
    Sim_time.(Runtime.now sys < add sent (of_ms 150));
  Alcotest.(check bool) "the primary took it on vouchers" true
    ((Replica.stats (Runtime.replica sys 0).Runtime.replica).vouched_proposals >= 1)

(* Replica 2 reboots for 100 ms while the group writes across two
   checkpoints, so the group garbage-collects the checkpoint its first
   fetch targets.  The replies to its reboot STATUS certify a newer one,
   and the fetch re-targets to it at once: the fetch ends a few round
   trips after the reboot, not after a silent 50 ms retry round. *)
let test_reintegration_retargets_at_once () =
  let sys, _ = make_system ~seed:57L ~checkpoint_period:8 () in
  drive_load sys ~ops:10 ~gap_ms:5;
  Runtime.recover_now ~reboot_us:100_000 sys 2;
  drive_load sys ~ops:20 ~gap_ms:1;
  let writes_done = Runtime.now sys in
  settle sys 1.0;
  match Runtime.recovery_timelines sys with
  | [ tl ] ->
    Alcotest.(check bool) "the writes landed during the reboot" true
      Sim_time.(writes_done <= of_us (Int64.to_int tl.Runtime.tl_reboot_done_us));
    let fetch_us = Int64.sub tl.Runtime.tl_fetch_done_us tl.Runtime.tl_reboot_done_us in
    Alcotest.(check bool)
      (Printf.sprintf "fetch took %Ld us, under one retry round" fetch_us)
      true
      (Int64.compare fetch_us 0L >= 0 && Int64.compare fetch_us 50_000L < 0);
    Alcotest.(check bool) "the fetch fetched objects" true (tl.Runtime.tl_objects > 0)
  | tls -> Alcotest.failf "expected one recovery episode, got %d" (List.length tls)

let suite =
  [
    Alcotest.test_case "status refills a briefly-down replica" `Quick
      test_status_refills_briefly_down_replica;
    Alcotest.test_case "recovery under continuous load" `Quick
      test_recovery_under_continuous_load;
    Alcotest.test_case "repair of corrupt state" `Quick test_repair_of_corrupt_state;
    Alcotest.test_case "recovery refreshes keys" `Quick test_recovery_refreshes_keys;
    Alcotest.test_case "rollback and replay exact" `Quick test_rollback_replay_exact;
    Alcotest.test_case "staggering limits concurrent recoveries" `Quick
      test_staggering_limits_concurrent_recoveries;
    Alcotest.test_case "retry chain drives only its fetcher" `Quick
      test_retry_chain_drives_only_its_fetcher;
    Alcotest.test_case "timeline counts the completing reply" `Quick
      test_timeline_counts_the_completing_reply;
    Alcotest.test_case "st_totals sum the cells" `Quick test_st_totals_sum_the_cells;
    Alcotest.test_case "reboot re-targets a fetch" `Quick test_reboot_retargets_fetch;
    Alcotest.test_case "a fetch's end catches up at once" `Quick test_fetch_end_catches_up;
    Alcotest.test_case "a diverging install re-targets with a doubling back-off" `Quick
      test_divergence_retargets_with_backoff;
    Alcotest.test_case "a write during the primary's reboot needs no retransmission" `Quick
      test_write_during_primary_reboot;
    Alcotest.test_case "reintegration re-targets at once" `Quick
      test_reintegration_retargets_at_once;
    Alcotest.test_case "staggered recovery keeps the view" `Quick
      test_staggered_recovery_keeps_the_view;
  ]
