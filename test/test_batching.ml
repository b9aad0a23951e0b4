(* Tests of request batching: correctness is untouched (exactly-once per
   request, convergent states) while concurrent load gets amortised into
   fewer consensus instances. *)

open Helpers
module Runtime = Base_core.Runtime
module Replica = Base_bft.Replica
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan
module Sim_time = Base_sim.Sim_time

(* Closed-loop load: every client keeps one op outstanding for [duration]
   and issues none after it, so running the engine on afterwards drains
   the load. *)
let closed_loop sys ~clients ~duration_s =
  let completed = ref 0 in
  let deadline = Sim_time.add (Runtime.now sys) (Sim_time.of_sec duration_s) in
  let rec issue c i =
    Runtime.invoke sys ~client:c
      ~operation:(Printf.sprintf "set:%d:c%d-%d" (c mod 8) c i)
      (fun reply ->
        if reply <> "ok" then failwith "unexpected reply";
        incr completed;
        if Sim_time.compare (Runtime.now sys) deadline < 0 then issue c (i + 1))
  in
  for c = 0 to clients - 1 do
    issue c 0
  done;
  Engine.run ~until:deadline (Runtime.engine sys);
  !completed

let stats_of sys =
  Array.fold_left
    (fun (i, r) node ->
      let st = Replica.stats node.Runtime.replica in
      (max i st.Replica.executed, max r st.Replica.executed_requests))
    (0, 0) (Runtime.replicas sys)

let test_batches_form_under_load () =
  let sys, kvs =
    make_system ~seed:61L ~n_clients:8 ~checkpoint_period:64 ~batch_max:8 ~max_inflight:2 ()
  in
  let completed = closed_loop sys ~clients:8 ~duration_s:1.0 in
  let instances, requests = stats_of sys in
  Alcotest.(check bool) "work happened" true (completed > 50);
  Alcotest.(check bool)
    (Printf.sprintf "batching amortised instances (%d reqs in %d instances)" requests instances)
    true
    (requests > instances * 2);
  (* Quiesce in-flight traffic, then check convergence. *)
  Engine.run
    ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 1.0))
    (Runtime.engine sys);
  let s0 = Array.copy kvs.(0).slots in
  Array.iter (fun kv -> Alcotest.(check bool) "replicas agree" true (kv.slots = s0)) kvs

let test_batching_not_lossy () =
  (* Every client op completes exactly once: final slot values reflect each
     client's LAST completed op. *)
  let sys, kvs =
    make_system ~seed:62L ~n_clients:4 ~checkpoint_period:32 ~batch_max:16 ~max_inflight:1 ()
  in
  let per_client = 25 in
  let done_count = ref 0 in
  for c = 0 to 3 do
    for i = 0 to per_client - 1 do
      Runtime.invoke sys ~client:c
        ~operation:(Printf.sprintf "set:%d:final%d-%d" c c i)
        (fun _ -> incr done_count)
    done
  done;
  let events = ref 0 in
  while !done_count < 4 * per_client && !events < 3_000_000 do
    if not (Engine.step (Runtime.engine sys)) then failwith "quiescent";
    incr events
  done;
  Alcotest.(check int) "all ops completed" (4 * per_client) !done_count;
  Engine.run
    ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 1.0))
    (Runtime.engine sys);
  Array.iteri
    (fun r kv ->
      for c = 0 to 3 do
        Alcotest.(check string)
          (Printf.sprintf "replica %d slot %d" r c)
          (Printf.sprintf "final%d-%d" c (per_client - 1))
          kv.slots.(c)
      done)
    kvs

let test_batching_with_view_change () =
  let sys, _ =
    make_system ~seed:63L ~n_clients:4 ~checkpoint_period:32 ~batch_max:8 ~max_inflight:2 ()
  in
  ignore (closed_loop sys ~clients:4 ~duration_s:0.3);
  Runtime.set_behavior sys 0 Faultplan.B_mute;
  let more = closed_loop sys ~clients:4 ~duration_s:1.5 in
  Alcotest.(check bool) "progress after primary failure under batched load" true (more > 20)

let test_unbatched_equivalence () =
  (* batch_max = 1 must behave exactly like the original protocol. *)
  let sys, _ = make_system ~seed:64L ~batch_max:1 ~max_inflight:1 () in
  Alcotest.(check string) "set" "ok" (set sys ~client:0 2 "plain");
  Alcotest.(check string) "get" "plain" (value_part (get sys ~client:0 2));
  let instances, requests = stats_of sys in
  Alcotest.(check int) "one request per instance" instances requests

(* Batching-equivalence property: batching is a scheduling optimisation, not
   a semantic change.  The same seeded workload run under batch_max = 1 and
   batch_max = 64 must produce identical per-client result histories and an
   identical abstract-state digest.  The workload runs on the stamp-free
   registers service (no agreed clock enters the state) with each client
   owning a disjoint slot range, so results and final state are functions of
   the workload alone — any divergence is a batching bug (loss, duplication,
   reordering within a client, or cross-request interference). *)
let equivalence_script ~n_clients ~per_client ~slots_per_client =
  let prng = Base_util.Prng.create 4242L in
  Array.init n_clients (fun c ->
      let base = c * slots_per_client in
      Array.init per_client (fun i ->
          let slot = base + Base_util.Prng.int prng slots_per_client in
          match Base_util.Prng.int prng 4 with
          | 0 -> (Printf.sprintf "get:%d" slot, false)
          | 1 -> (Printf.sprintf "get:%d" slot, true)  (* read-only fast path *)
          | _ -> (Printf.sprintf "set:%d:c%d-%d" slot c i, false)))

let run_equivalence_workload ~batch_max script ~n_clients ~slots_per_client =
  let sys =
    Base_workload.Systems.make_registers ~seed:65L ~n_clients ~batch_max
      ~n_objects:(n_clients * slots_per_client) ()
  in
  let rt = sys.Base_workload.Systems.reg_runtime in
  let histories = Array.map (fun ops -> Array.make (Array.length ops) "") script in
  Array.iteri
    (fun c ops ->
      Array.iteri
        (fun i (operation, read_only) ->
          Runtime.invoke rt ~client:c ~read_only ~operation (fun r ->
              histories.(c).(i) <- r))
        ops)
    script;
  Runtime.run_until_idle rt;
  (* Quiesce stragglers so every replica reaches the final state. *)
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 1.0)) (Runtime.engine rt);
  let root = Base_core.Objrepo.current_root (Runtime.replica rt 0).Runtime.repo in
  Array.iter
    (fun node ->
      Alcotest.(check bool) "replicas converged" true
        (Base_crypto.Digest_t.equal root
           (Base_core.Objrepo.current_root node.Runtime.repo)))
    (Runtime.replicas rt);
  (histories, root)

let test_batching_equivalence_property () =
  let n_clients = 4 and per_client = 24 and slots_per_client = 4 in
  let script = equivalence_script ~n_clients ~per_client ~slots_per_client in
  let h1, d1 = run_equivalence_workload ~batch_max:1 script ~n_clients ~slots_per_client in
  let h64, d64 = run_equivalence_workload ~batch_max:64 script ~n_clients ~slots_per_client in
  for c = 0 to n_clients - 1 do
    Alcotest.(check (array string))
      (Printf.sprintf "client %d history identical across batch sizes" c)
      h1.(c) h64.(c)
  done;
  Alcotest.(check bool) "abstract-state digests identical" true
    (Base_crypto.Digest_t.equal d1 d64)

let suite =
  [
    Alcotest.test_case "batches form under load" `Quick test_batches_form_under_load;
    Alcotest.test_case "batching is not lossy" `Quick test_batching_not_lossy;
    Alcotest.test_case "batching + view change" `Quick test_batching_with_view_change;
    Alcotest.test_case "unbatched equivalence" `Quick test_unbatched_equivalence;
    Alcotest.test_case "batching-equivalence property" `Quick
      test_batching_equivalence_property;
  ]
