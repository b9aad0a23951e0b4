(* Combination stress tests: the failure modes the individual suites cover
   one at a time, layered together — recovery under message loss, batching
   during proactive recovery, and an f=2 group with recovery plus a
   Byzantine replica. *)

open Helpers
module Runtime = Base_core.Runtime
module Objrepo = Base_core.Objrepo
module Replica = Base_bft.Replica
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan
module Sim_time = Base_sim.Sim_time

let settle sys seconds =
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec seconds))
    (Runtime.engine sys)

let converged sys =
  let roots =
    Array.map (fun node -> Objrepo.current_root node.Runtime.repo) (Runtime.replicas sys)
  in
  Array.for_all (fun r -> Base_crypto.Digest_t.equal r roots.(0)) roots

let test_recovery_with_message_loss () =
  let sys, _ = make_system ~seed:71L ~checkpoint_period:8 ~drop_p:0.03 () in
  Runtime.enable_proactive_recovery ~reboot_us:60_000 ~period_us:1_500_000 sys;
  for i = 0 to 39 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "lossy%d" i));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 120))
  done;
  Runtime.disable_proactive_recovery sys;
  settle sys 4.0;
  Alcotest.(check bool) "converged under loss + recovery" true (converged sys);
  Alcotest.(check string) "service alive" "ok" (set sys ~client:0 0 "post")

let test_batching_with_recovery () =
  let sys, kvs =
    make_system ~seed:72L ~n_clients:6 ~checkpoint_period:32 ~batch_max:8 ~max_inflight:2 ()
  in
  Runtime.enable_proactive_recovery ~reboot_us:60_000 ~period_us:1_200_000 sys;
  let completed = ref 0 in
  let stop = ref false in
  let rec issue c i =
    Runtime.invoke sys ~client:c
      ~operation:(Printf.sprintf "set:%d:b%d-%d" (c mod 8) c i)
      (fun _ ->
        incr completed;
        if not !stop then issue c (i + 1))
  in
  for c = 0 to 5 do
    issue c 0
  done;
  settle sys 3.0;
  Runtime.disable_proactive_recovery sys;
  stop := true;
  settle sys 4.0;
  Alcotest.(check bool)
    (Printf.sprintf "throughput under recovery (%d ops)" !completed)
    true (!completed > 200);
  let s0 = Array.copy kvs.(0).slots in
  Array.iteri
    (fun r kv ->
      Alcotest.(check bool) (Printf.sprintf "replica %d agrees" r) true (kv.slots = s0))
    kvs

let test_f2_recovery_with_byzantine () =
  (* Seven replicas, one liar, staggered recoveries: still linearisable and
     convergent. *)
  let sys, kvs = make_system ~seed:73L ~f:2 ~checkpoint_period:8 () in
  Runtime.set_behavior sys 3 Faultplan.B_lie;
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:2_000_000 sys;
  for i = 0 to 29 do
    let v = Printf.sprintf "f2-%d" i in
    Alcotest.(check string) "op ok" "ok" (set sys ~client:0 (i mod 8) v);
    Alcotest.(check string) "read own write" v (value_part (get sys ~client:0 (i mod 8)));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 150))
  done;
  Runtime.disable_proactive_recovery sys;
  settle sys 4.0;
  (* All seven replicas converge: the liar only lied to clients, and
     recoveries repaired nothing because nothing concrete diverged. *)
  let s0 = Array.copy kvs.(0).slots in
  Array.iteri
    (fun r kv ->
      Alcotest.(check bool) (Printf.sprintf "replica %d of 7 agrees" r) true (kv.slots = s0))
    kvs

let test_mass_corruption_swept_clean () =
  (* Corrupt f replicas heavily, then let a full recovery sweep repair the
     group while it serves load. *)
  let sys, kvs = make_system ~seed:74L ~checkpoint_period:8 () in
  for i = 0 to 15 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "base%d" i))
  done;
  (* Wreck replica 2's entire store behind the wrapper's back. *)
  for s = 0 to 7 do
    kvs.(2).slots.(s) <- "WRECKED"
  done;
  Runtime.enable_proactive_recovery ~reboot_us:60_000 ~period_us:1_000_000 sys;
  for i = 0 to 19 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "after%d" i));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 150))
  done;
  Runtime.disable_proactive_recovery sys;
  settle sys 4.0;
  Alcotest.(check bool) "wreckage repaired" true
    (Array.for_all (fun v -> v <> "WRECKED") kvs.(2).slots);
  Alcotest.(check bool) "converged" true (converged sys)

let suite =
  [
    Alcotest.test_case "recovery + message loss" `Slow test_recovery_with_message_loss;
    Alcotest.test_case "batching + recovery" `Slow test_batching_with_recovery;
    Alcotest.test_case "f=2 + byzantine + recovery" `Slow test_f2_recovery_with_byzantine;
    Alcotest.test_case "mass corruption swept clean" `Slow test_mass_corruption_swept_clean;
  ]
