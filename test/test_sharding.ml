(* Sharded agreement: oid routing, per-shard primaries and view changes,
   and the determinism guarantee for conflict-free workloads (same seed ->
   same final abstract state regardless of shard count). *)

module Types = Base_bft.Types
module Runtime = Base_core.Runtime
module Systems = Base_workload.Systems

(* --- shard-map unit tests ---------------------------------------------------- *)

let test_shard_map () =
  let config =
    Types.make_config ~shard_bounds:[| 4; 8; 16 |] ~f:1 ~n_clients:1 ()
  in
  Alcotest.(check int) "n_shards" 3 (Types.n_shards config);
  Alcotest.(check int) "oid 0" 0 (Types.shard_of_oid config 0);
  Alcotest.(check int) "oid 3" 0 (Types.shard_of_oid config 3);
  Alcotest.(check int) "oid 4" 1 (Types.shard_of_oid config 4);
  Alcotest.(check int) "oid 15" 2 (Types.shard_of_oid config 15);
  (* Out-of-range oids clamp to the last shard rather than raising: the
     footprint hook is service-supplied and treated as untrusted. *)
  Alcotest.(check int) "oid 99 clamps" 2 (Types.shard_of_oid config 99);
  (* In any view the S primaries sit on S distinct nodes, and shard 0's
     rotation coincides with the unsharded one. *)
  for view = 0 to 7 do
    Alcotest.(check int)
      "shard-0 primary is the unsharded primary"
      (view mod config.Types.n)
      (Types.shard_primary config ~shard:0 view);
    let prims =
      List.init 3 (fun shard -> Types.shard_primary config ~shard view)
      |> List.sort_uniq Int.compare
    in
    Alcotest.(check int) "distinct primaries" 3 (List.length prims)
  done

let test_uniform_shards () =
  Alcotest.(check (array int)) "even split" [| 4; 8 |] (Types.uniform_shards ~shards:2 ~n_objects:8);
  Alcotest.(check (array int))
    "remainder goes to the high shards" [| 2; 5; 8 |]
    (Types.uniform_shards ~shards:3 ~n_objects:8);
  Alcotest.(check (array int)) "one shard" [||] (Types.uniform_shards ~shards:1 ~n_objects:8)

let test_bad_bounds () =
  Alcotest.check_raises "descending bounds rejected"
    (Base_util.Invariant.Violation
       "make_config: shard_bounds must be strictly ascending positive") (fun () ->
      ignore (Types.make_config ~shard_bounds:[| 8; 4 |] ~f:1 ~n_clients:1 ()))

(* --- end-to-end over the registers service ---------------------------------- *)

let set sys ~client i v =
  Runtime.invoke_sync sys ~client ~operation:(Printf.sprintf "set:%d:%s" i v) ()

let get sys ~client i =
  Runtime.invoke_sync sys ~client ~operation:(Printf.sprintf "get:%d" i) ()

let test_routed_operations () =
  let { Systems.reg_runtime = sys; slots } =
    Systems.make_registers ~seed:5L ~shards:2 ~n_objects:8 ~n_clients:2 ()
  in
  Alcotest.(check int) "two shards" 2 (Runtime.n_shards sys);
  (* Writes landing in both shards, from both clients. *)
  for i = 0 to 7 do
    Alcotest.(check string) "set ok" "ok" (set sys ~client:(i mod 2) i (Printf.sprintf "v%d" i))
  done;
  for i = 0 to 7 do
    Alcotest.(check string) "read back" (Printf.sprintf "v%d" i) (get sys ~client:(i mod 2) i)
  done;
  (* All four replicas converge on the same concrete state. *)
  Array.iteri
    (fun rid row ->
      Array.iteri
        (fun i v ->
          Alcotest.(check string) (Printf.sprintf "replica %d slot %d" rid i)
            (Printf.sprintf "v%d" i) v)
        row)
    (Array.sub slots 0 4)

(* Conflict-free determinism: the same single-object workload produces the
   same final abstract state whatever the shard count, because each shard
   executes its slice of the workload in client order and no operation
   crosses a boundary. *)
let test_shard_count_invariance () =
  let final shards =
    let { Systems.reg_runtime = sys; slots } =
      Systems.make_registers ~seed:9L ~shards ~n_objects:12 ~n_clients:1 ()
    in
    for round = 0 to 2 do
      for i = 0 to 11 do
        ignore (set sys ~client:0 i (Printf.sprintf "r%d.%d" round i))
      done
    done;
    Runtime.run_until_idle sys;
    Array.to_list slots.(0)
  in
  let one = final 1 in
  Alcotest.(check (list string)) "S=2 matches S=1" one (final 2);
  Alcotest.(check (list string)) "S=4 matches S=1" one (final 4)

(* A muted primary in one shard forces a view change there; the other shard
   keeps its primary and both make progress. *)
let test_per_shard_view_change () =
  let { Systems.reg_runtime = sys; _ } =
    Systems.make_registers ~seed:11L ~shards:2 ~n_objects:8 ~n_clients:1
      ~viewchange_timeout_us:200_000 ()
  in
  (* Shard 1's view-0 primary is node 1 (rotation offset by the shard id);
     mute only that cell. *)
  Runtime.set_behavior ~shard:1 sys 1 Base_sim.Faultplan.B_mute;
  Alcotest.(check string) "shard 0 unaffected" "ok" (set sys ~client:0 0 "a");
  Alcotest.(check string) "shard 1 recovers via view change" "ok" (set sys ~client:0 7 "b");
  let cell = Runtime.shard_replica sys ~shard:1 0 in
  Alcotest.(check bool) "shard 1 left view 0" true
    (Base_bft.Replica.view cell.Runtime.replica > 0);
  let cell0 = Runtime.replica sys 0 in
  Alcotest.(check int) "shard 0 still in view 0" 0 (Base_bft.Replica.view cell0.Runtime.replica)

(* Sharding composes with neither warm standbys nor proactive recovery. *)
let test_standby_gate () =
  Alcotest.check_raises "standby pool rejected"
    (Base_util.Invariant.Violation
       "Runtime.create: a sharded object space cannot run a standby pool") (fun () ->
      ignore (Systems.make_registers ~shards:2 ~standbys:1 ()))

let suite =
  [
    Alcotest.test_case "shard map" `Quick test_shard_map;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_shards;
    Alcotest.test_case "invalid bounds" `Quick test_bad_bounds;
    Alcotest.test_case "routed operations" `Quick test_routed_operations;
    Alcotest.test_case "shard-count invariance" `Quick test_shard_count_invariance;
    Alcotest.test_case "per-shard view change" `Quick test_per_shard_view_change;
    Alcotest.test_case "standby gate" `Quick test_standby_gate;
  ]
