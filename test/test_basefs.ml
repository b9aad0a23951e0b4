(* Full-system integration: the replicated NFS service (BASE-FS) with four
   heterogeneous off-the-shelf implementations running over the complete
   BFT + BASE stack inside the simulator. *)

open Base_nfs.Nfs_types
module C = Base_nfs.Nfs_client
module Runtime = Base_core.Runtime
module Objrepo = Base_core.Objrepo
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan
module Sim_time = Base_sim.Sim_time
module Replica = Base_bft.Replica
module S = Base_fs.Server_intf

let nfs_of sys ~client = Base_workload.Systems.nfs_client sys.Base_workload.Systems.runtime ~client

let settle sys seconds =
  let rt = sys.Base_workload.Systems.runtime in
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec seconds)) (Runtime.engine rt)

let roots_agree sys =
  Base_workload.Faults.divergent_replicas sys.Base_workload.Systems.runtime = 0

let test_basic_tree () =
  let sys = Base_workload.Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let nfs = nfs_of sys ~client:0 in
  let d = C.mkdir_p nfs "/projects/base/src" in
  let f = C.write_file nfs d "main.c" ~chunk:4096 "int main(void){return 0;}" in
  Alcotest.(check string)
    "read back" "int main(void){return 0;}"
    (C.read_file nfs f ~chunk:4096);
  (* Deterministic handles: lookup yields the same oid everywhere. *)
  let o, a = C.ok (C.lookup nfs d "main.c") in
  Alcotest.(check bool) "oid is deterministic" true (o.index > 0 && a.ftype = Reg);
  settle sys 0.5;
  Alcotest.(check bool) "abstract states agree" true (roots_agree sys)

let test_readdir_sorted_and_hidden () =
  let sys = Base_workload.Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let nfs = nfs_of sys ~client:0 in
  List.iter
    (fun n -> ignore (C.ok (C.create nfs root_oid n sattr_empty)))
    [ "zebra"; "alpha"; "Middle" ];
  let names = List.map fst (C.ok (C.readdir nfs root_oid)) in
  (* Sorted lexicographically; the wrapper's staging directory is hidden. *)
  Alcotest.(check (list string)) "sorted" [ "Middle"; "alpha"; "zebra" ] names

let test_timestamps_agreed () =
  (* mtimes come from the agreed nondet values: they are identical across
     replicas even though every implementation has a wildly skewed clock,
     and they are close to virtual time. *)
  let sys = Base_workload.Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let nfs = nfs_of sys ~client:0 in
  let f, _ = C.ok (C.create nfs root_oid "stamped" sattr_empty) in
  ignore (C.ok (C.write nfs f ~off:0 "x"));
  let a = C.ok (C.getattr nfs f) in
  let now_s = Sim_time.to_sec (Runtime.now sys.Base_workload.Systems.runtime) in
  let mtime_s = Int64.to_float a.mtime /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "mtime %.3f within clock skew of %.3f" mtime_s now_s)
    true
    (Float.abs (mtime_s -. now_s) < 0.5);
  settle sys 0.3;
  Alcotest.(check bool) "states agree" true (roots_agree sys)

let test_errors_replicated () =
  let sys = Base_workload.Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let nfs = nfs_of sys ~client:0 in
  Alcotest.(check bool) "enoent" true (C.lookup nfs root_oid "missing" = Error Enoent);
  ignore (C.ok (C.mkdir nfs root_oid "d" sattr_empty));
  Alcotest.(check bool) "eexist" true
    (match C.mkdir nfs root_oid "d" sattr_empty with Error Eexist -> true | _ -> false);
  let d, _ = C.ok (C.lookup nfs root_oid "d") in
  ignore (C.ok (C.create nfs d "x" sattr_empty));
  let rmdir =
    Base_nfs.Nfs_proto.encode_call (Base_nfs.Nfs_proto.Rmdir (root_oid, "d"))
  in
  Alcotest.(check bool) "enotempty" true
    (match
       Base_nfs.Nfs_proto.decode_reply
         (Runtime.invoke_sync sys.Base_workload.Systems.runtime ~client:0 ~operation:rmdir ())
     with
    | Base_nfs.Nfs_proto.R_err Enotempty -> true
    | _ -> false)

let test_poison_masked_when_heterogeneous () =
  let o = Base_workload.Faults.poison_experiment ~hetero:true () in
  Alcotest.(check int) "one buggy replica" 1 o.Base_workload.Faults.buggy_replicas;
  Alcotest.(check bool) "client unaffected" true o.Base_workload.Faults.read_back_correct;
  Alcotest.(check int) "only the buggy replica diverged" 1 o.Base_workload.Faults.divergent

let test_poison_fatal_when_homogeneous () =
  let o = Base_workload.Faults.poison_experiment ~hetero:false () in
  Alcotest.(check int) "four buggy replicas" 4 o.Base_workload.Faults.buggy_replicas;
  (* The common-mode failure: every replica corrupts the data identically,
     so the client reads wrong bytes with a full quorum behind them. *)
  Alcotest.(check bool) "client sees corrupted data" false
    o.Base_workload.Faults.read_back_correct;
  Alcotest.(check int) "and nobody diverged" 0 o.Base_workload.Faults.divergent

let test_corruption_masked_and_repaired () =
  let o =
    Base_workload.Faults.corruption_experiment ~corrupt_replicas:1 ~objects_per_replica:5 ()
  in
  Alcotest.(check bool) "reads correct while <= f corrupt" true
    o.Base_workload.Faults.reads_correct_before_repair;
  Alcotest.(check bool)
    (Printf.sprintf "recovery repaired objects (damaged %d, repaired %d)"
       o.Base_workload.Faults.objects_damaged o.Base_workload.Faults.objects_repaired)
    true
    (o.Base_workload.Faults.objects_repaired >= o.Base_workload.Faults.objects_damaged);
  Alcotest.(check int) "group converged after repair" 0
    o.Base_workload.Faults.divergent_after_repair

(* E9's second row: more than f replicas corrupt.  Proactive recovery
   fetches state while the client keeps writing; a primary whose transfer
   dropped the writes that arrived meanwhile proposed nothing until the
   client's back-off retransmission, and on seeds 9 and 10 the run never
   finished. *)
let test_two_corrupt_replicas_recover () =
  List.iter
    (fun seed ->
      let o =
        Base_workload.Faults.corruption_experiment ~seed ~corrupt_replicas:2
          ~objects_per_replica:4 ()
      in
      Alcotest.(check bool) "reads correct" true o.Base_workload.Faults.reads_correct_before_repair;
      Alcotest.(check int) "group converged after repair" 0
        o.Base_workload.Faults.divergent_after_repair)
    [ 9L; 10L ]

let test_andrew_smoke () =
  (* A small Andrew run end-to-end on the replicated service, checked for
     functional correctness (the benchmark harness measures timing). *)
  let sys = Base_workload.Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let fs = Base_workload.Fs_iface.of_runtime ~client:0 sys.Base_workload.Systems.runtime in
  let r = Base_workload.Andrew.run ~scale:1 fs in
  Alcotest.(check int) "five phases" 5 (List.length r.Base_workload.Andrew.phases);
  Alcotest.(check bool) "did real work" true (r.Base_workload.Andrew.total_bytes > 50_000);
  settle sys 0.5;
  Alcotest.(check bool) "states agree after andrew" true (roots_agree sys)

let test_f2_seven_replicas () =
  (* f = 2: seven replicas spanning all five implementations; the system
     masks a mute replica and a lying replica at the same time. *)
  let sys = Base_workload.Systems.make_basefs ~f:2 ~hetero:true ~n_clients:1 () in
  Alcotest.(check int) "seven replicas" 7 (Array.length (Runtime.replicas sys.Base_workload.Systems.runtime));
  let distinct =
    sys.Base_workload.Systems.impl_of |> Array.to_list |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "five implementations in use" 5 distinct;
  Runtime.set_behavior sys.Base_workload.Systems.runtime 1 Faultplan.B_mute;
  Runtime.set_behavior sys.Base_workload.Systems.runtime 2 Faultplan.B_lie;
  let nfs = nfs_of sys ~client:0 in
  let d = C.mkdir_p nfs "/two-faults" in
  let f = C.write_file nfs d "file" ~chunk:4096 "still correct" in
  Alcotest.(check string) "reads correct with 2 faults" "still correct"
    (C.read_file nfs f ~chunk:4096)

(* The latent bug on a replica's write path breaks its inverse abstraction
   too: a recovery re-installs E6's payload through the buggy write.  The
   install reads its objects back through the abstraction function, so the
   divergence is counted and the replica keeps fetching, never voting a
   checkpoint its concrete state does not back, and re-fetches ever more
   rarely. *)
let test_recovered_buggy_replica_not_repaired () =
  let sys = Base_workload.Systems.make_basefs ~hetero:true ~checkpoint_period:16 ~n_clients:1 () in
  let rt = sys.Base_workload.Systems.runtime in
  sys.Base_workload.Systems.bugs.(1).S.poison <- Some "BUG";
  let nfs = nfs_of sys ~client:0 in
  let payload = "static int BUG_trigger = 42; /* crosses the bad code path */" in
  let write_many name =
    let fh, _ = C.ok (C.create nfs root_oid name sattr_empty) in
    for _ = 0 to 40 do
      ignore (C.ok (C.write nfs fh ~off:0 payload))
    done
  in
  write_many "first.c";
  Runtime.recover_now ~reboot_us:50_000 rt 1;
  write_many "second.c";
  settle sys 1.0;
  Alcotest.(check int) "the buggy replica diverges" 1 (Base_workload.Faults.divergent_replicas rt);
  let divergences =
    Base_obs.Metrics.counter_value
      (Base_obs.Metrics.counter (Runtime.metrics rt) "st.inverse_divergence")
  in
  (* The waits between re-fetches double from 50 ms: the fifth divergence
     comes 750 ms after the first, the sixth 800 ms after that. *)
  Alcotest.(check bool)
    (Printf.sprintf "divergences counted and backed off (%d in 1 s, at most 5)" divergences)
    true
    (divergences > 0 && divergences <= 5);
  Alcotest.(check bool) "still fetching" true
    (Replica.status (Runtime.replica rt 1).Runtime.replica = Replica.Fetching)

let suite =
  [
    Alcotest.test_case "basic tree operations" `Quick test_basic_tree;
    Alcotest.test_case "f=2: seven replicas, five impls, two faults" `Quick
      test_f2_seven_replicas;
    Alcotest.test_case "readdir sorted, staging hidden" `Quick test_readdir_sorted_and_hidden;
    Alcotest.test_case "timestamps agreed across replicas" `Quick test_timestamps_agreed;
    Alcotest.test_case "errors replicated deterministically" `Quick test_errors_replicated;
    Alcotest.test_case "N-version masks deterministic bug" `Quick
      test_poison_masked_when_heterogeneous;
    Alcotest.test_case "homogeneous replicas share the bug" `Quick
      test_poison_fatal_when_homogeneous;
    Alcotest.test_case "corruption masked and repaired" `Quick
      test_corruption_masked_and_repaired;
    Alcotest.test_case "two corrupt replicas: masked and recovered" `Quick
      test_two_corrupt_replicas_recover;
    Alcotest.test_case "andrew benchmark end-to-end" `Slow test_andrew_smoke;
    Alcotest.test_case "a recovered buggy replica is not reported repaired" `Quick
      test_recovered_buggy_replica_not_repaired;
  ]
