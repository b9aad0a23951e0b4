(* Network partition demo: safety over liveness.

   A 2+2 partition leaves neither side with a 2f+1 quorum, so the service
   stops — it never forks.  Healing restores liveness: the stuck operation
   commits exactly once and every replica converges on the same history.

   Run with: dune exec examples/partition_demo.exe *)

open Base_nfs.Nfs_types
module C = Base_nfs.Nfs_client
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Systems = Base_workload.Systems

let () =
  let sys = Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  let engine = Runtime.engine rt in
  let nfs = Systems.nfs_client rt ~client:0 in
  let f = C.write_file nfs root_oid "ledger" ~chunk:4096 "before partition\n" in
  Printf.printf "wrote ledger before the partition\n";
  (* Split the replicas 2+2: no quorum on either side. *)
  Engine.partition engine [ 0; 1 ] [ 2; 3 ];
  Printf.printf "partitioned {0,1} | {2,3}; issuing a write...\n";
  let committed = ref false in
  Runtime.invoke rt ~client:0
    ~operation:
      (Base_nfs.Nfs_proto.encode_call (Base_nfs.Nfs_proto.Write (f, 0, "during partition!\n")))
    (fun _ -> committed := true);
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 3.0)) engine;
  Printf.printf "after 3 s of partition: committed = %b (safety: no split brain)\n" !committed;
  Engine.heal engine;
  Printf.printf "healed the network...\n";
  let budget = ref 0 in
  while (not !committed) && !budget < 2_000_000 do
    ignore (Engine.step engine);
    incr budget
  done;
  Printf.printf "after healing: committed = %b\n" !committed;
  let data = C.read_file nfs f ~chunk:4096 in
  Printf.printf "ledger now reads: %S\n" data;
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 1.0)) engine;
  Printf.printf "replicas diverging from majority: %d (must be 0)\n"
    (Base_workload.Faults.divergent_replicas sys)
