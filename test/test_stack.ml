(* End-to-end tests of the replication stack over the toy register service:
   ordering, read-only ops, checkpointing/GC, view changes on primary
   failure, state transfer for a lagging replica, Byzantine replies, and
   proactive recovery. *)

open Helpers
module Runtime = Base_core.Runtime
module Replica = Base_bft.Replica
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan
module Sim_time = Base_sim.Sim_time

let check = Alcotest.(check string)

let test_basic_ops () =
  let sys, _ = make_system () in
  check "set returns ok" "ok" (set sys ~client:0 3 "hello");
  check "get sees the write" "hello" (value_part (get sys ~client:0 3));
  check "read-only get agrees" "hello" (value_part (get_ro sys ~client:0 3))

let test_many_ops_checkpointing () =
  let sys, _ = make_system ~checkpoint_period:8 () in
  for i = 0 to 49 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "v%d" i))
  done;
  check "final value" "v49" (value_part (get sys ~client:0 1));
  Array.iter
    (fun node ->
      let s = Replica.stats node.Runtime.replica in
      Alcotest.(check bool)
        "took checkpoints" true
        (s.Replica.checkpoints_taken > 2))
    (Runtime.replicas sys);
  (* Garbage collection kicked in: low watermark advanced. *)
  Array.iter
    (fun node ->
      Alcotest.(check bool)
        "watermark advanced" true
        (Replica.low_watermark node.Runtime.replica >= 8))
    (Runtime.replicas sys)

let test_replicas_agree () =
  let sys, kvs = make_system () in
  for i = 0 to 7 do
    ignore (set sys ~client:0 i (Printf.sprintf "x%d" i))
  done;
  (* Let in-flight commits land everywhere. *)
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_ms 50)) (Runtime.engine sys);
  Array.iteri
    (fun r kv ->
      for i = 0 to 7 do
        check (Printf.sprintf "replica %d slot %d" r i) (Printf.sprintf "x%d" i) kv.slots.(i)
      done)
    kvs

let test_view_change_on_primary_failure () =
  let sys, _ = make_system () in
  ignore (set sys ~client:0 0 "before");
  (* Silence the primary (replica 0 in view 0): the system must view-change
     and keep executing. *)
  Runtime.set_behavior sys 0 Faultplan.B_mute;
  check "op completes despite dead primary" "ok" (set sys ~client:0 1 "after");
  check "state correct" "after" (value_part (get sys ~client:0 1));
  let view_advanced =
    Array.exists
      (fun node -> Replica.view node.Runtime.replica > 0)
      (Runtime.replicas sys)
  in
  Alcotest.(check bool) "view advanced" true view_advanced

let test_byzantine_replies_masked () =
  let sys, _ = make_system () in
  Runtime.set_behavior sys 2 Faultplan.B_lie;
  check "lying replica is outvoted" "ok" (set sys ~client:0 0 "truth");
  check "reads still correct" "truth" (value_part (get sys ~client:0 0))

let test_state_transfer_lagging_replica () =
  let sys, kvs = make_system ~checkpoint_period:8 () in
  (* Take replica 3 down; the other three make progress and garbage-collect
     the messages replica 3 misses; on return it must state-transfer. *)
  Engine.set_node_up (Runtime.engine sys) 3 false;
  for i = 0 to 39 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "w%d" i))
  done;
  Engine.set_node_up (Runtime.engine sys) 3 true;
  (* Drive the simulation long enough for the status-timer/checkpoint
     machinery to trigger the fetch. *)
  Engine.run
    ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 3.0))
    ~max_events:2_000_000 (Runtime.engine sys);
  let node3 = Runtime.replica sys 3 in
  Alcotest.(check bool)
    "replica 3 fetched state" true
    ((Replica.stats node3.Runtime.replica).Replica.fetches >= 1);
  check "replica 3 caught up" "w39" kvs.(3).slots.(7)

let test_proactive_recovery_cycle () =
  let sys, kvs = make_system ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:100_000 ~period_us:2_000_000 sys;
  for i = 0 to 79 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "r%d" i))
  done;
  Engine.run
    ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 3.0))
    ~max_events:2_000_000 (Runtime.engine sys);
  (* Every replica went through at least one watchdog recovery and the
     implementations were restarted. *)
  Array.iteri
    (fun r node ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d recovered" r)
        true
        (node.Runtime.recovery_stats.Runtime.recoveries >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "replica %d restarted impl" r)
        true
        (kvs.(r).restarts >= 1))
    (Runtime.replicas sys);
  check "service still correct" "r79" (value_part (get sys ~client:0 7))

let test_deterministic_runs () =
  let run seed =
    let sys, _ = make_system ~seed () in
    for i = 0 to 9 do
      ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "d%d" i))
    done;
    let c = Engine.total_counters (Runtime.engine sys) in
    (c.Engine.sent_msgs, c.Engine.sent_bytes, Sim_time.to_sec (Runtime.now sys))
  in
  let a = run 42L and b = run 42L and c = run 43L in
  Alcotest.(check bool) "same seed, same run" true (a = b);
  Alcotest.(check bool) "different seed, different run" true (a <> c)

let test_message_loss_liveness () =
  let sys, _ = make_system ~drop_p:0.05 ~checkpoint_period:8 () in
  for i = 0 to 29 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "l%d" i))
  done;
  check "survives 5%% loss" "l29" (value_part (get sys ~client:0 5))

let suite =
  [
    Alcotest.test_case "basic set/get/read-only" `Quick test_basic_ops;
    Alcotest.test_case "checkpointing and GC" `Quick test_many_ops_checkpointing;
    Alcotest.test_case "replicas agree" `Quick test_replicas_agree;
    Alcotest.test_case "view change on primary failure" `Quick test_view_change_on_primary_failure;
    Alcotest.test_case "byzantine replies masked" `Quick test_byzantine_replies_masked;
    Alcotest.test_case "state transfer for lagging replica" `Quick
      test_state_transfer_lagging_replica;
    Alcotest.test_case "proactive recovery cycle" `Quick test_proactive_recovery_cycle;
    Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
    Alcotest.test_case "liveness under message loss" `Quick test_message_loss_liveness;
  ]
