(* The deterministic two-phase cross-shard commit: happy path, coordinator
   crash mid-commit, a Byzantine lock-shard primary, and the footprint-abort
   backstop. *)

module Types = Base_bft.Types
module Runtime = Base_core.Runtime
module Service = Base_core.Service
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan

(* A multi-register service whose "mset:<i>:<j>:<v>" writes [v] to both
   slots — the minimal operation with a two-object footprint.  "lie:<i>:<j>"
   under-declares its footprint (claims slot [i] only, then mutates [j]) to
   exercise the runtime's abort backstop. *)
let multireg_wrapper ~n_objects slots : Service.wrapper =
  let execute ~client:_ ~operation ~nondet:_ ~read_only:_ ~modify =
    match String.split_on_char ':' operation with
    | [ "set"; i; v ] ->
      let i = int_of_string i in
      modify i;
      slots.(i) <- v;
      "ok"
    | [ "get"; i ] -> slots.(int_of_string i)
    | [ "mset"; i; j; v ] ->
      let i = int_of_string i and j = int_of_string j in
      modify i;
      slots.(i) <- v;
      modify j;
      slots.(j) <- v;
      "ok"
    | [ "lie"; _; j ] ->
      let j = int_of_string j in
      modify j;
      slots.(j) <- "corrupted";
      "ok"
    | _ -> "bad-op"
  in
  {
    Service.name = "multireg";
    n_objects;
    execute;
    get_obj = (fun i -> slots.(i));
    put_objs = (fun objs -> List.iter (fun (i, data) -> slots.(i) <- data) objs);
    restart = (fun () -> ());
    propose_nondet = (fun ~clock_us:_ ~operation:_ -> "");
    check_nondet = (fun ~clock_us:_ ~operation:_ ~nondet -> String.equal nondet "");
    oids_of_op =
      (fun ~operation ->
        match String.split_on_char ':' operation with
        | [ "set"; i; _ ] | [ "get"; i ] | [ "lie"; i; _ ] -> [ int_of_string i ]
        | [ "mset"; i; j; _ ] -> [ int_of_string i; int_of_string j ]
        | _ -> []);
  }

let make_system ?(seed = 21L) ?(n_clients = 1) ?(n_objects = 8) ?(shards = 2)
    ?(viewchange_timeout_us = 200_000) () =
  let config =
    Types.make_config ~checkpoint_period:16 ~log_window:32 ~viewchange_timeout_us
      ~shard_bounds:(Types.uniform_shards ~shards ~n_objects) ~f:1 ~n_clients ()
  in
  let engine_config = Runtime.engine_config ~seed () in
  let slots = Array.init (Types.group_size config) (fun _ -> Array.make n_objects "") in
  let make_wrapper rid = multireg_wrapper ~n_objects slots.(rid) in
  let sys = Runtime.create ~engine_config ~config ~make_wrapper ~n_clients () in
  (sys, slots)

let mset sys ~client i j v =
  Runtime.invoke_sync sys ~client ~operation:(Printf.sprintf "mset:%d:%d:%s" i j v) ()

let get sys ~client i =
  Runtime.invoke_sync sys ~client ~operation:(Printf.sprintf "get:%d" i) ()

let check_agreement ~what slots =
  let reference = slots.(0) in
  for rid = 1 to 3 do
    Alcotest.(check (array string))
      (Printf.sprintf "%s: replica %d agrees with replica 0" what rid)
      reference slots.(rid)
  done

(* --- happy path -------------------------------------------------------------- *)

let test_commit () =
  let sys, slots = make_system () in
  (* Oids 0-3 live in shard 0, 4-7 in shard 1: every mset crosses. *)
  Alcotest.(check string) "cross-shard mset" "ok" (mset sys ~client:0 1 5 "x");
  Alcotest.(check string) "low half" "x" (get sys ~client:0 1);
  Alcotest.(check string) "high half" "x" (get sys ~client:0 5);
  (* Interleave with single-shard traffic and more crossers. *)
  ignore (Runtime.invoke_sync sys ~client:0 ~operation:"set:0:solo" ());
  Alcotest.(check string) "second crosser" "ok" (mset sys ~client:0 3 4 "y");
  Alcotest.(check string) "reversed footprint" "ok" (mset sys ~client:0 6 2 "z");
  Alcotest.(check string) "slot 3" "y" (get sys ~client:0 3);
  Alcotest.(check string) "slot 4" "y" (get sys ~client:0 4);
  Alcotest.(check string) "slot 2" "z" (get sys ~client:0 2);
  Alcotest.(check string) "slot 6" "z" (get sys ~client:0 6);
  Runtime.run_until_idle sys;
  check_agreement ~what:"commit" slots;
  (* Executed lock requests leave nothing pending at the lock shard's
     backups, so a second of idle time changes no view. *)
  let idle_until = Base_sim.Sim_time.add (Runtime.now sys) (Base_sim.Sim_time.of_sec 1.0) in
  Engine.run ~until:idle_until (Runtime.engine sys);
  for shard = 0 to 1 do
    for r = 0 to 3 do
      let replica = (Runtime.shard_replica sys ~shard r).Runtime.replica in
      Alcotest.(check int)
        (Printf.sprintf "shard %d replica %d: nothing pending" shard r)
        0
        (Base_bft.Replica.pending_count replica);
      Alcotest.(check int)
        (Printf.sprintf "shard %d replica %d: still view 0" shard r)
        0
        (Base_bft.Replica.view replica)
    done
  done

let test_commit_three_clients () =
  let sys, slots = make_system ~seed:31L ~n_clients:3 () in
  let pending = ref 0 in
  for k = 0 to 8 do
    let client = k mod 3 in
    incr pending;
    Runtime.invoke sys ~client
      ~operation:(Printf.sprintf "mset:%d:%d:w%d" (k mod 4) (4 + ((k + 1) mod 4)) k)
      (fun reply ->
        decr pending;
        Alcotest.(check string) "concurrent mset" "ok" reply)
  done;
  Runtime.run_until_idle sys;
  Alcotest.(check int) "all replies arrived" 0 !pending;
  check_agreement ~what:"three clients" slots

(* --- coordinator crash mid-commit ------------------------------------------- *)

(* Crash the coordinator shard's primary (node 0 hosts shard 0's view-0
   primary) while cross-shard traffic is in flight: the participant shard
   holds its lock, the view change elects a new coordinator primary, the
   client retransmits, and the op commits exactly once. *)
let test_coordinator_crash () =
  let sys, slots = make_system ~seed:41L () in
  (* Prime both shards so checkpoints and locks have history. *)
  Alcotest.(check string) "prime" "ok" (mset sys ~client:0 0 4 "pre");
  let plan =
    match Base_sim.Faultplan.parse "at 10ms crash 0\nat 600ms reboot 0\n" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Runtime.apply_faultplan sys plan;
  (match Runtime.try_invoke_sync sys ~client:0 ~operation:"mset:2:6:mid" () with
  | Ok reply -> Alcotest.(check string) "mset across the crash" "ok" reply
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "low half" "mid" (get sys ~client:0 2);
  Alcotest.(check string) "high half" "mid" (get sys ~client:0 6);
  Runtime.run_until_idle sys;
  (* Replica 0 was down for part of the run; only the live replicas are
     required to agree (it catches up via state transfer at its own pace). *)
  let reference = slots.(1) in
  for rid = 2 to 3 do
    Alcotest.(check (array string))
      (Printf.sprintf "crash: replica %d agrees with replica 1" rid)
      reference slots.(rid)
  done

(* --- Byzantine lock-shard primary ------------------------------------------- *)

(* Shard 1's view-0 primary (node 1) equivocates while it holds the
   participant role for cross-shard locks.  Safety must hold: the honest
   quorum either orders the lock consistently or changes the view, and the
   final states of all replicas agree. *)
let test_byzantine_lock_primary () =
  let sys, slots = make_system ~seed:51L () in
  Runtime.set_behavior ~shard:1 sys 1 Faultplan.B_equivocate;
  (match Runtime.try_invoke_sync sys ~client:0 ~operation:"mset:1:6:byz" () with
  | Ok reply -> Alcotest.(check string) "mset despite equivocation" "ok" reply
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "low half" "byz" (get sys ~client:0 1);
  Alcotest.(check string) "high half" "byz" (get sys ~client:0 6);
  Runtime.run_until_idle sys;
  (* Under an equivocating replica one honest node may lag until the next
     checkpoint-driven transfer; safety needs a 2f+1 quorum in agreement. *)
  let agreed =
    List.length
      (List.filter
         (fun rid -> slots.(rid).(1) = "byz" && slots.(rid).(6) = "byz")
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check bool) "quorum executed the crosser" true (agreed >= 3)

(* --- footprint abort --------------------------------------------------------- *)

let test_footprint_abort () =
  let sys, slots = make_system ~seed:61L () in
  (* "lie:1:6" claims oid 1 (shard 0) but mutates oid 6 (shard 1): the
     runtime aborts it deterministically before the mutation lands. *)
  Alcotest.(check string) "abort reply" "#xshard-abort"
    (Runtime.invoke_sync sys ~client:0 ~operation:"lie:1:6" ());
  Alcotest.(check string) "slot 6 untouched" "" (get sys ~client:0 6);
  (* The system keeps running normally afterwards. *)
  Alcotest.(check string) "next op fine" "ok" (mset sys ~client:0 1 6 "after");
  Runtime.run_until_idle sys;
  check_agreement ~what:"abort" slots

(* Unsharded systems accept the same under-declared op: the footprint is
   advisory until a boundary is crossed. *)
let test_no_abort_unsharded () =
  let sys, _ = make_system ~seed:71L ~shards:1 () in
  Alcotest.(check string) "unsharded lie executes" "ok"
    (Runtime.invoke_sync sys ~client:0 ~operation:"lie:1:6" ());
  Alcotest.(check string) "slot 6 written" "corrupted" (get sys ~client:0 6)

(* --- lock requests --------------------------------------------------------------- *)

module Xshard = Base_core.Xshard

(* The format lock requests travel in: ["xlock:coord:client:ts:p1,p2"]. *)
let lock_operation ~coord ~client ~ts ~parts =
  Printf.sprintf "xlock:%d:%d:%Ld:%s" coord client ts
    (String.concat "," (List.map string_of_int parts))

(* The lock format, from both ends.  A protocol instance of its own over
   a four-shard system's cells, queried before the system runs, parks on
   a well-formed lock and executes anything else from an internal client
   as a no-op.  And the system's own locks round-trip: a commit across
   shards completes only if each participant parses the lock its
   coordinator wrote. *)
let test_lock_format () =
  let sys, slots = make_system ~shards:4 () in
  let config = Runtime.config sys in
  let xshard =
    Xshard.create ~config ~engine:(Runtime.engine sys)
      (Array.init (Types.n_shards config) (fun shard ->
           Array.init config.Types.n (fun rid -> Runtime.shard_replica sys ~shard rid)))
  in
  let gate ~shard operation =
    Xshard.ready xshard ~rid:0 ~shard ~client:(Types.internal_client ~shard:0) ~timestamp:100L
      ~operation
  in
  List.iter
    (fun (coord, client, ts, parts) ->
      let op = lock_operation ~coord ~client ~ts ~parts in
      Alcotest.(check bool) (Printf.sprintf "%S parks its shard" op) false
        (gate ~shard:(List.hd parts) op))
    [ (0, 7, 42L, [ 1 ]); (1, 12, 0L, [ 2; 3 ]); (0, 5, 9_000_000_000L, [ 1; 2; 3 ]) ];
  List.iter
    (fun op ->
      Alcotest.(check bool) (Printf.sprintf "%S executes as a no-op" op) true (gate ~shard:1 op))
    [
      "";
      "set:1:x";
      "xlock:0:7:42";
      "xlock:0:7:42:1:2";
      "xlock:0:7:42:";
      "xlock:a:7:42:1";
      "xlock:0:b:42:1";
      "xlock:0:7:c:1";
      "xlock:0:7:42:1,x";
      "xlock:0:7:42:4";
      "xlock:9:7:42:1";
      "xlock:-1:7:42:1";
    ];
  (* Two slots per shard: slot 1 is in shard 0, slot 5 in shard 2, slot 7
     in shard 3. *)
  Alcotest.(check string) "commit across shards 0 and 3" "ok" (mset sys ~client:0 1 7 "x");
  Alcotest.(check string) "commit across shards 2 and 3" "ok" (mset sys ~client:0 5 7 "y");
  Runtime.run_until_idle sys;
  check_agreement ~what:"four shards" slots

(* Two nodes asked the same questions (coordinator shard, committed head)
   hand out the same timestamps, and several locks in one batch never
   collide. *)
let test_lock_timestamps () =
  let batch_max = 4 in
  let queries = [ (0, 5); (0, 5); (1, 5); (0, 5); (0, 6); (1, 6); (1, 6); (0, 9) ] in
  let run () =
    let clock = Xshard.lock_clock ~n_shards:2 in
    List.map (fun (coord, seq) -> (coord, Xshard.next_lock_ts clock ~batch_max ~coord ~seq)) queries
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair int int64))) "nodes agree" a b;
  List.iter
    (fun coord ->
      let mine = List.filter_map (fun (c, ts) -> if c = coord then Some ts else None) a in
      Alcotest.(check int)
        (Printf.sprintf "coordinator %d: distinct" coord)
        (List.length mine)
        (List.length (List.sort_uniq Int64.compare mine)))
    [ 0; 1 ];
  Alcotest.(check (list int64)) "within one batch: consecutive"
    [ 25L; 26L; 27L ]
    (List.filter_map (fun (c, ts) -> if c = 0 && Int64.compare ts 30L < 0 then Some ts else None) a)

let suite =
  [
    Alcotest.test_case "two-shard commit" `Quick test_commit;
    Alcotest.test_case "concurrent clients" `Quick test_commit_three_clients;
    Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash;
    Alcotest.test_case "byzantine lock primary" `Quick test_byzantine_lock_primary;
    Alcotest.test_case "footprint abort" `Quick test_footprint_abort;
    Alcotest.test_case "unsharded footprint is advisory" `Quick test_no_abort_unsharded;
    Alcotest.test_case "lock operation format" `Quick test_lock_format;
    Alcotest.test_case "lock timestamps agree and never collide" `Quick test_lock_timestamps;
  ]
