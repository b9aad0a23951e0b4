(* Protocol-level tests of the PBFT substrate: safety under loss and
   concurrency, view-change behaviour, equivocating primaries, partitions,
   and the message-authentication boundary. *)

open Helpers
module Runtime = Base_core.Runtime
module Replica = Base_bft.Replica
module Message = Base_bft.Message
module Types = Base_bft.Types
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan
module Sim_time = Base_sim.Sim_time

let settle sys seconds =
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec seconds))
    (Runtime.engine sys)

let all_states_equal kvs =
  let snapshot (kv : kv) = (Array.copy kv.slots, Array.copy kv.stamps) in
  let s0 = snapshot kvs.(0) in
  Array.for_all (fun kv -> snapshot kv = s0) kvs

let test_safety_two_clients_with_loss () =
  (* Two clients race on the same slots over a lossy network; all replicas
     must converge to identical states (SMR safety). *)
  let sys, kvs = make_system ~seed:21L ~n_clients:2 ~drop_p:0.08 ~checkpoint_period:8 () in
  let pending = ref 0 in
  for i = 0 to 39 do
    incr pending;
    Runtime.invoke sys ~client:(i mod 2)
      ~operation:(Printf.sprintf "set:%d:c%dv%d" (i mod 8) (i mod 2) i)
      (fun _ -> decr pending)
  done;
  let events = ref 0 in
  while !pending > 0 && !events < 3_000_000 do
    if not (Engine.step (Runtime.engine sys)) then failwith "quiescent";
    incr events
  done;
  Alcotest.(check int) "all ops completed" 0 !pending;
  settle sys 1.0;
  Alcotest.(check bool) "replicas converged" true (all_states_equal kvs)

let test_sequential_consistency_of_results () =
  (* A client alternating writes and reads observes its own writes. *)
  let sys, _ = make_system ~seed:22L () in
  for i = 0 to 19 do
    ignore (set sys ~client:0 2 (Printf.sprintf "gen%d" i));
    Alcotest.(check string) "read own write" (Printf.sprintf "gen%d" i)
      (value_part (get sys ~client:0 2))
  done

let test_equivocating_primary_safe () =
  (* An equivocating primary cannot make correct replicas diverge. *)
  let sys, kvs = make_system ~seed:23L () in
  Runtime.set_behavior sys 0 Faultplan.B_equivocate;
  for i = 0 to 9 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "eq%d" i))
  done;
  settle sys 2.0;
  Alcotest.(check bool) "replicas converged despite equivocation" true
    (let honest = [ kvs.(1); kvs.(2); kvs.(3) ] in
     List.for_all (fun (kv : kv) -> kv.slots = kvs.(1).slots) honest)

let test_partition_blocks_then_heals () =
  let sys, _ = make_system ~seed:24L () in
  ignore (set sys ~client:0 0 "before");
  (* 2+2 split: no 2f+1 quorum exists, so no operation can commit. *)
  Engine.partition (Runtime.engine sys) [ 0; 1 ] [ 2; 3 ];
  let done_ = ref false in
  Runtime.invoke sys ~client:0 ~operation:"set:0:during" (fun _ -> done_ := true);
  settle sys 3.0;
  Alcotest.(check bool) "no progress across partition" false !done_;
  Engine.heal (Runtime.engine sys);
  let events = ref 0 in
  while (not !done_) && !events < 3_000_000 do
    if not (Engine.step (Runtime.engine sys)) then failwith "quiescent";
    incr events
  done;
  Alcotest.(check bool) "heals and completes" true !done_;
  Alcotest.(check string) "value committed once" "during" (value_part (get sys ~client:0 0))

let test_successive_primary_failures () =
  (* Mute the current primary after each batch; the view advances past the
     dead primaries and the service keeps going (f = 1 at a time is
     respected because earlier primaries are revived). *)
  let sys, _ = make_system ~seed:25L () in
  ignore (set sys ~client:0 0 "v0");
  Runtime.set_behavior sys 0 Faultplan.B_mute;
  ignore (set sys ~client:0 0 "v1");
  (* Revive 0, kill the new primary. *)
  Runtime.set_behavior sys 0 Faultplan.B_honest;
  let new_primary =
    let node = Runtime.replica sys 1 in
    Replica.view node.Runtime.replica mod 4
  in
  Runtime.set_behavior sys new_primary Faultplan.B_mute;
  ignore (set sys ~client:0 0 "v2");
  Alcotest.(check string) "final value" "v2" (value_part (get sys ~client:0 0))

let apply_plan sys text =
  match Faultplan.parse text with
  | Ok plan -> Runtime.apply_faultplan sys plan
  | Error e -> Alcotest.fail e

(* A muted replica still runs the protocol, timers included: once it is
   honest again it keeps gossiping STATUS like every other replica. *)
let test_muted_replica_keeps_status_timer () =
  let sys, _ = make_system ~seed:25L () in
  apply_plan sys "at 0us behavior 2 mute\nat 1s behavior 2 honest";
  settle sys 1.0;
  let trace = Base_obs.Trace.create () in
  Engine.attach_trace (Runtime.engine sys) trace;
  settle sys 3.0;
  let sent = Array.make 4 0 in
  List.iter
    (fun (ev : Base_obs.Trace.event) ->
      let attr k = List.assoc k ev.attrs in
      if ev.name = "net.send" && String.starts_with ~prefix:"STATUS" (attr "label") then
        let src = int_of_string (attr "src") in
        sent.(src) <- sent.(src) + 1)
    (Base_obs.Trace.events trace);
  Alcotest.(check bool) "replica 0 gossips" true (sent.(0) > 0);
  Array.iteri (fun r n -> Alcotest.(check int) (Printf.sprintf "replica %d" r) sent.(0) n) sent

(* Attack windows belong to cells: a window on node 1 leaves an open one on
   node 0 in place, so both primaries of views 0 and 1 lose their
   PRE-PREPAREs and the group settles on view 2. *)
let test_attack_windows_per_cell () =
  let sys, _ = make_system ~seed:30L () in
  apply_plan sys
    "at 0us attack-preprepare 0 mute=1 delay=0us for 20s\n\
     at 0us attack-preprepare 1 mute=1 delay=0us for 20s";
  settle sys 0.001;
  ignore (set sys ~client:0 0 "through");
  Array.iter
    (fun node -> Alcotest.(check int) "view" 2 (Replica.view node.Runtime.replica))
    (Runtime.replicas sys)

(* A behaviour naming a shard or a node the system does not have names no
   cell: it is ignored, and the group keeps serving. *)
let test_behavior_out_of_range_ignored () =
  let sys, _ = make_system ~seed:31L () in
  Runtime.set_behavior ~shard:1 sys 0 Faultplan.B_mute;
  Runtime.set_behavior ~shard:(-1) sys 0 Faultplan.B_mute;
  Runtime.set_behavior sys 7 Faultplan.B_mute;
  ignore (set sys ~client:0 0 "served");
  Array.iter
    (fun node -> Alcotest.(check int) "no view change" 0 (Replica.view node.Runtime.replica))
    (Runtime.replicas sys)

let test_mac_forgery_rejected () =
  (* A message whose authenticator was built by the wrong principal is
     dropped and counted, never processed. *)
  let sys, _ = make_system ~seed:26L () in
  ignore (set sys ~client:0 0 "x");
  let node = Runtime.replica sys 1 in
  let before = (Replica.stats node.Runtime.replica).Replica.rejected_macs in
  (* Replay a legitimate-looking prepare "from replica 2" but sealed by the
     orchestrator-node id (whose keys differ): MAC check must fail. *)
  let config = Runtime.config sys in
  let chains = Base_crypto.Auth.create ~seed:4242L ~n_principals:config.Types.n_principals in
  let forged =
    Message.seal chains.(2) ~sender:2 ~n_receivers:config.Types.n
      (Message.Prepare
         { view = 0; seq = 3; digest = Base_crypto.Digest_t.of_string "fake"; replica = 2 })
  in
  Engine.send (Runtime.engine sys) ~src:2 ~dst:1 (Runtime.Bft forged);
  settle sys 0.2;
  let after = (Replica.stats node.Runtime.replica).Replica.rejected_macs in
  Alcotest.(check bool) "forged MAC rejected" true (after = before + 1)

let test_checkpoint_digests_match () =
  (* All replicas produce identical checkpoint digests at the same seqno —
     the heart of abstract-state agreement. *)
  let sys, _ = make_system ~seed:27L ~checkpoint_period:8 () in
  for i = 0 to 24 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "cp%d" i))
  done;
  settle sys 1.0;
  Array.iter
    (fun node ->
      Alcotest.(check bool) "stable checkpoint advanced" true
        (Replica.low_watermark node.Runtime.replica >= 8))
    (Runtime.replicas sys)

let test_null_requests_after_view_change () =
  (* A view change with gaps orders null requests; execution skips them and
     the service state is unaffected. *)
  let sys, kvs = make_system ~seed:28L () in
  ignore (set sys ~client:0 1 "solid");
  Runtime.set_behavior sys 0 Faultplan.B_mute;
  ignore (set sys ~client:0 2 "after-vc");
  settle sys 1.0;
  Alcotest.(check string) "pre-vc value survives" "solid" kvs.(1).slots.(1);
  Alcotest.(check string) "post-vc value applied" "after-vc" kvs.(1).slots.(2)

let test_read_only_with_replica_down () =
  (* The read-only optimisation still reaches its 2f+1 quorum with one
     replica down. *)
  let sys, _ = make_system ~seed:29L () in
  ignore (set sys ~client:0 4 "ro-target");
  Engine.set_node_up (Runtime.engine sys) 3 false;
  Alcotest.(check string) "read-only succeeds" "ro-target"
    (value_part (get_ro sys ~client:0 4))

(* The maintained pending count against a recount of the client table,
   after every event of a run that reaches each site that changes it:
   request arrival, ordered and read-only execution, a view change whose new
   primary re-proposes the requests its backups held, and a state transfer
   that replaces a replica's client table. *)
let test_pending_count_matches_table () =
  let n_clients = 4 in
  let sys, _ =
    make_system ~seed:27L ~n_clients ~checkpoint_period:4 ~client_timeout_us:50_000
      ~viewchange_timeout_us:100_000 ()
  in
  let engine = Runtime.engine sys in
  let first_client = Types.group_size (Runtime.config sys) in
  let peak = ref 0 in
  let step () =
    if not (Engine.step engine) then Alcotest.fail "engine went idle";
    Array.iter
      (fun node ->
        let r = node.Runtime.replica in
        let recount = ref 0 in
        for client = first_client to first_client + n_clients - 1 do
          if Replica.client_pending r ~client then incr recount
        done;
        if Replica.pending_count r <> !recount then
          Alcotest.failf "replica %d: pending count %d, client table %d" node.Runtime.rid
            (Replica.pending_count r) !recount;
        peak := max !peak !recount)
      (Runtime.replicas sys)
  in
  (* One operation per client, all concurrent, stepped to completion. *)
  let round ?(read_only = false) tag =
    let left = ref n_clients in
    for c = 0 to n_clients - 1 do
      let operation =
        if read_only then Printf.sprintf "get:%d" c else Printf.sprintf "set:%d:%s" c tag
      in
      Runtime.invoke sys ~client:c ~read_only ~operation (fun _ -> decr left)
    done;
    while !left > 0 do
      step ()
    done
  in
  round "a";
  round ~read_only:true "";
  (* Replica 2 hears nothing from the clients for a while: it learns their
     requests from the primary's PRE-PREPARE. *)
  let until = Sim_time.add (Runtime.now sys) (Sim_time.of_ms 20) in
  for client = first_client to first_client + n_clients - 1 do
    Engine.fault_drop engine ~src:client ~dst:2 ~p:1.0 ~until
  done;
  round "b";
  (* Cut the primary off from the backups.  They hold each request as
     pending until the view change installs a primary that proposes them;
     replica 0 still hears the clients and keeps their requests pending. *)
  Engine.partition engine [ 0 ] [ 1; 2; 3 ];
  for i = 1 to 10 do
    round (Printf.sprintf "c%d" i)
  done;
  Alcotest.(check bool) "view changed" true (Replica.view (Runtime.replica sys 1).replica > 0);
  let r0 = (Runtime.replica sys 0).replica in
  Alcotest.(check bool) "replica 0 holds pending requests" true (Replica.pending_count r0 > 0);
  (* Replica 0 missed more than a log window: it catches up by state
     transfer, which replaces its client table. *)
  Engine.heal engine;
  let target = Replica.last_executed (Runtime.replica sys 1).replica in
  while Replica.last_executed r0 < target do
    step ()
  done;
  Alcotest.(check bool) "replica 0 fetched state" true ((Replica.stats r0).fetches > 0);
  Alcotest.(check bool) "some request was pending" true (!peak > 0)

(* One ordered batch through a backup's execute path: an external request,
   an internal (cross-shard) one, a null request and a request flagged
   read-only that a (possibly Byzantine) primary ordered anyway.  Each
   external request gets exactly one reply; internal and null requests get
   none; every upcall runs read-write; and nothing stays pending. *)
let test_execute_path_batch () =
  let config = Types.make_config ~f:1 ~n_clients:2 () in
  let chains = Base_crypto.Auth.create ~seed:12L ~n_principals:config.n_principals in
  let replies = Queue.create () and upcalls = Queue.create () in
  let net =
    {
      (Helpers.silent_net) with
      Message.send =
        (fun ~dst env ->
          match env.Message.body with
          | Message.Reply r -> Queue.add (dst, r.client) replies
          | _ -> ());
    }
  in
  let r1 =
    Helpers.bare_replica ~net ~config ~chains 1 ~on_execute:(fun ~read_only op ->
        Queue.add (op, read_only) upcalls)
  in
  let seal sender body = Message.seal chains.(sender) ~sender ~n_receivers:config.n body in
  let ext = config.n and ro = config.n + 1 and internal = Types.internal_client ~shard:0 in
  let request client operation read_only =
    { Message.client; timestamp = 0L; operation; read_only }
  in
  let batch =
    [
      request ext "ext" false;
      request internal "internal" false;
      Message.null_request;
      request ro "ro" true;
    ]
  in
  Replica.receive r1 (seal ext (Message.Request (List.hd batch)));
  Alcotest.(check int) "external request pending" 1 (Replica.pending_count r1);
  let digest = Base_crypto.Digest_t.of_string (Message.encode_batch batch ~nondet:"") in
  Replica.receive r1
    (seal 0 (Message.Pre_prepare { view = 0; seq = 1; digest; requests = batch; nondet = "" }));
  List.iter
    (fun r ->
      Replica.receive r1 (seal r (Message.Prepare { view = 0; seq = 1; digest; replica = r }));
      Replica.receive r1 (seal r (Message.Commit { view = 0; seq = 1; digest; replica = r })))
    [ 2; 3 ];
  Alcotest.(check int) "batch executed" 1 (Replica.last_executed r1);
  Alcotest.(check (list (pair string bool)))
    "one read-write upcall per non-null request, in batch order"
    [ ("ext", false); ("internal", false); ("ro", false) ]
    (List.of_seq (Queue.to_seq upcalls));
  Alcotest.(check (list (pair int int)))
    "one reply per external request, to its client"
    [ (ext, ext); (ro, ro) ]
    (List.of_seq (Queue.to_seq replies));
  Alcotest.(check int) "nothing left pending" 0 (Replica.pending_count r1)

(* The primary keeps the PRE-PREPARE it sealed and re-MACs it for each
   re-send.  Proactive recovery refreshes a backup's keys in between, so a
   re-send must carry MACs under the new keys: the backup that lost the
   first copy accepts the re-send and rejects no MAC. *)
let test_pre_prepare_resend_after_key_refresh () =
  let config = Types.make_config ~f:1 ~n_clients:1 () in
  let chains = Base_crypto.Auth.create ~seed:13L ~n_principals:config.n_principals in
  let to_backup = Queue.create () and prepares = ref 0 in
  let primary_net =
    {
      Helpers.silent_net with
      Message.send =
        (fun ~dst env ->
          match env.Message.body with
          | Message.Pre_prepare _ when dst = 1 -> Queue.add env to_backup
          | _ -> ());
    }
  in
  let backup_net =
    {
      Helpers.silent_net with
      Message.send =
        (fun ~dst env ->
          match env.Message.body with Message.Prepare _ when dst = 0 -> incr prepares | _ -> ());
    }
  in
  let primary = Helpers.bare_replica ~net:primary_net ~config ~chains 0 in
  let backup = Helpers.bare_replica ~net:backup_net ~config ~chains 1 in
  let client = config.n in
  let request =
    Message.seal chains.(client) ~sender:client ~n_receivers:config.n
      (Message.Request { client; timestamp = 0L; operation = "op"; read_only = false })
  in
  Replica.receive primary request;
  (* The first copy is lost; then replica 1 recovers with fresh keys. *)
  let lost = Queue.pop to_backup in
  Base_crypto.Auth.refresh_keys chains 1;
  Alcotest.(check bool) "the first copy's MAC is void" false
    (Message.verify chains.(1) ~receiver:1 lost);
  (* The client retransmits; the primary re-sends the assigned slot. *)
  Replica.receive primary request;
  let resent = Queue.pop to_backup in
  Alcotest.(check bool) "re-send shares the sealed bytes" true
    (resent.Message.wire == lost.Message.wire);
  Replica.receive backup resent;
  Alcotest.(check int) "backup rejected no MAC" 0 (Replica.stats backup).rejected_macs;
  Alcotest.(check int) "backup prepared the slot" 1 !prepares

(* Bare replicas of an f = 1 group with [n_clients] clients: [make id] is
   replica [id], [sent] holds every (destination, body) any of them sends,
   [timers] every timer any of them arms (the k-th armed gets id k),
   [cancelled] the id of every cancel, and [seal sender body] MACs [body]
   as principal [sender] would. *)
type bare = {
  config : Types.config;
  sent : (int * Message.body) Queue.t;
  timers : Replica.timer Queue.t;
  cancelled : int Queue.t;
  make : int -> Replica.t;
  seal : int -> Message.body -> Message.envelope;
}

let bare_group ?(n_clients = 1) ?max_inflight ?checkpoint_period ?log_window () =
  let config =
    Types.make_config ?max_inflight ?checkpoint_period ?log_window ~f:1 ~n_clients ()
  in
  let chains = Base_crypto.Auth.create ~seed:15L ~n_principals:config.n_principals in
  let sent = Queue.create () and timers = Queue.create () and cancelled = Queue.create () in
  let armed = ref 0 and clock = ref 0L in
  let net =
    {
      Message.send = (fun ~dst env -> Queue.add (dst, env.Message.body) sent);
      (* Every reading is a microsecond later: events happen in order. *)
      now_us =
        (fun () ->
          clock := Int64.succ !clock;
          !clock);
      set_timer =
        (fun ~after_us:_ tm ->
          Queue.add tm timers;
          incr armed;
          !armed);
      cancel_timer = (fun id -> Queue.add id cancelled);
    }
  in
  {
    config;
    sent;
    timers;
    cancelled;
    make = Helpers.bare_replica ~net ~config ~chains;
    seal = (fun sender body -> Message.seal chains.(sender) ~sender ~n_receivers:config.n body);
  }

let client_request ?(timestamp = 1L) client =
  { Message.client; timestamp; operation = "op"; read_only = false }

let request ?timestamp client = Message.Request (client_request ?timestamp client)

let pre_prepares_to g dst =
  Queue.fold
    (fun acc (d, body) ->
      match body with Message.Pre_prepare pp when d = dst -> pp :: acc | _ -> acc)
    [] g.sent
  |> List.rev

(* The (view, seq) of every PREPARE broadcast, as replica 0 receives them. *)
let prepares g =
  Queue.fold
    (fun acc (d, body) ->
      match body with
      | Message.Prepare p when d = 0 -> (p.Message.view, p.Message.seq) :: acc
      | _ -> acc)
    [] g.sent
  |> List.rev

(* The client sends to every replica, so a primary with an instance in
   flight hears a request several times (a retransmission, a backup's
   relay).  It queues every copy, but batches the request once. *)
let test_copies_batched_once () =
  let g = bare_group ~n_clients:2 ~max_inflight:1 () in
  let primary = g.make 0 in
  let a = g.config.n and b = g.config.n + 1 in
  Replica.receive primary (g.seal a (request a));
  for _ = 1 to 4 do
    Replica.receive primary (g.seal b (request b))
  done;
  let digest =
    match pre_prepares_to g 1 with
    | [ pp ] -> pp.Message.digest
    | pps -> Alcotest.failf "%d PRE-PREPAREs before seq 1 executed" (List.length pps)
  in
  List.iter
    (fun r ->
      let vote = { Message.view = 0; seq = 1; digest; replica = r } in
      Replica.receive primary (g.seal r (Message.Prepare vote));
      Replica.receive primary (g.seal r (Message.Commit vote)))
    [ 1; 2 ];
  Alcotest.(check int) "seq 1 executed" 1 (Replica.last_executed primary);
  match pre_prepares_to g 1 with
  | [ _; second ] ->
    Alcotest.(check (list int)) "client b ordered once" [ b ]
      (List.map (fun (r : Message.request) -> r.client) second.requests)
  | pps -> Alcotest.failf "%d PRE-PREPAREs, expected 2" (List.length pps)

(* A backup relays a request to the primary only when the client
   retransmits it: the first receipt of each timestamp is the client's own
   broadcast, which reached the primary too. *)
let test_backup_relays_retransmission () =
  let g = bare_group () in
  let backup = g.make 1 and client = g.config.n in
  let relayed () =
    Queue.fold
      (fun n (dst, body) -> match body with Message.Request _ when dst = 0 -> n + 1 | _ -> n)
      0 g.sent
  in
  Replica.receive backup (g.seal client (request client));
  Alcotest.(check int) "first receipt kept" 0 (relayed ());
  Replica.receive backup (g.seal client (request client));
  Alcotest.(check int) "retransmission relayed" 1 (relayed ());
  Replica.receive backup (g.seal client (request ~timestamp:2L client));
  Alcotest.(check int) "a newer request's first receipt kept" 1 (relayed ())

(* Replica 2 times out in view 0 and moves to view 1, whose primary is
   replica 1; replicas 0 and 1 join.  [new_view ()] installs view 1. *)
let enter_view_one g =
  let r2 = g.make 2 and client = g.config.n in
  Replica.receive r2 (g.seal client (request client));
  Replica.on_timer r2 (Replica.Vc_timeout 0);
  Alcotest.(check bool) "view changing" true (Replica.status r2 = Replica.View_changing);
  List.iter
    (fun r ->
      Replica.receive r2
        (g.seal r
           (Message.View_change
              {
                new_view = 1;
                last_stable = 0;
                stable_digest = Base_crypto.Digest_t.zero;
                prepared = [];
                replica = r;
              })))
    [ 0; 1 ];
  let new_view () =
    Replica.receive r2
      (g.seal 1
         (Message.New_view
            { nv_view = 1; nv_view_changes = [ (0, 0); (1, 0); (2, 0) ]; nv_pre_prepares = [] }));
    Alcotest.(check bool) "view 1 installed" true
      (Replica.status r2 = Replica.Normal && Replica.view r2 = 1)
  in
  (r2, new_view)

let pre_prepare ?(view = 1) ~seq requests =
  let digest = Base_crypto.Digest_t.of_string (Message.encode_batch requests ~nondet:"") in
  { Message.view; seq; digest; requests; nondet = "" }

(* The new primary's first PRE-PREPARE can overtake its NEW-VIEW.  The
   backup keeps it and accepts it once the view is installed. *)
let test_early_pre_prepare_replayed () =
  let g = bare_group () in
  let r2, new_view = enter_view_one g in
  let ordered = [ client_request g.config.n ] in
  Replica.receive r2 (g.seal 1 (Message.Pre_prepare (pre_prepare ~seq:1 ordered)));
  Alcotest.(check (list (pair int int))) "not prepared before NEW-VIEW" [] (prepares g);
  new_view ();
  Alcotest.(check (list (pair int int))) "prepared after the install" [ (1, 1) ] (prepares g)

(* A flood of PRE-PREPAREs during a view change: several per slot, slots
   on both sides of the log window, and senders or views that are not the
   new primary's.  The backup keeps the first from the new primary per
   slot in the window, prepares each of them at the install, and empties
   the buffer. *)
let test_early_pre_prepare_buffer_bound () =
  let g = bare_group ~checkpoint_period:4 ~log_window:8 () in
  let r2, new_view = enter_view_one g in
  for seq = 0 to 12 do
    let valid = pre_prepare ~seq [] in
    List.iter
      (fun (sender, pp) -> Replica.receive r2 (g.seal sender (Message.Pre_prepare pp)))
      [
        (1, valid);
        (1, { valid with digest = Base_crypto.Digest_t.of_string "second" });
        (1, { valid with digest = Base_crypto.Digest_t.of_string "third" });
        (0, pre_prepare ~seq [ Message.null_request ]);
        (2, pre_prepare ~view:2 ~seq [ Message.null_request ]);
      ]
  done;
  Alcotest.(check int) "one per slot in the window" 8 (Replica.early_pre_prepares r2);
  new_view ();
  Alcotest.(check (list (pair int int)))
    "each slot in the window prepared once"
    (List.init 8 (fun k -> (1, k + 1)))
    (prepares g);
  Alcotest.(check int) "buffer emptied" 0 (Replica.early_pre_prepares r2);
  Alcotest.(check int) "nothing rejected" 0 (Replica.stats r2).rejected_insane

(* A backup that abandons its view change (a quorum of peers reports the
   old view) drops the PRE-PREPAREs it kept for the view it left. *)
let test_early_pre_prepares_dropped_on_abandon () =
  let g = bare_group () in
  let r2, _ = enter_view_one g in
  Replica.receive r2 (g.seal 1 (Message.Pre_prepare (pre_prepare ~seq:1 [])));
  Alcotest.(check int) "kept" 1 (Replica.early_pre_prepares r2);
  List.iter
    (fun r ->
      Replica.receive r2
        (g.seal r (Message.Status { st_view = 0; st_last_exec = 0; st_h = 0; st_replica = r })))
    [ 0; 3 ];
  Alcotest.(check bool) "back in view 0" true
    (Replica.status r2 = Replica.Normal && Replica.view r2 = 0);
  Alcotest.(check int) "dropped" 0 (Replica.early_pre_prepares r2)

(* A correct primary batches each request once, so a batch that repeats
   a (client, timestamp) is implausible: rejected and counted. *)
let test_repeated_request_rejected () =
  let g = bare_group () in
  let backup = g.make 1 in
  let r = client_request g.config.n in
  Replica.receive backup (g.seal 0 (Message.Pre_prepare (pre_prepare ~view:0 ~seq:1 [ r; r ])));
  Alcotest.(check int) "rejected as insane" 1 (Replica.stats backup).rejected_insane;
  Alcotest.(check (list (pair int int))) "not prepared" [] (prepares g);
  let distinct = [ r; client_request ~timestamp:2L g.config.n ] in
  Replica.receive backup (g.seal 0 (Message.Pre_prepare (pre_prepare ~view:0 ~seq:1 distinct)));
  Alcotest.(check (list (pair int int))) "distinct timestamps prepare" [ (0, 1) ] (prepares g)

(* A request that reaches a primary while it fetches state is not lost
   with the old client table: the primary proposes it once the transfer
   completes, and drops it only when the transferred table shows it
   executed. *)
let test_fetch_keeps_pending_requests () =
  let g = bare_group () in
  let primary = g.make 0 and client = g.config.n in
  let zero = Base_crypto.Digest_t.zero in
  let digest0 = Replica.checkpoint_digest ~app_digest:zero ~client_rows:[] in
  Replica.force_fetch primary ~seq:0 ~digest:digest0;
  Replica.receive primary (g.seal client (request client));
  Alcotest.(check int) "nothing proposed while fetching" 0 (List.length (pre_prepares_to g 1));
  Replica.fetch_complete primary ~seq:0 ~app_digest:zero ~client_rows:[];
  Alcotest.(check int) "still pending" 1 (Replica.pending_count primary);
  Alcotest.(check int) "proposed after the transfer" 1 (List.length (pre_prepares_to g 1));
  let rows = [ (client, 1L, "ok") ] in
  let digest = Replica.checkpoint_digest ~app_digest:zero ~client_rows:rows in
  Replica.force_fetch primary ~seq:0 ~digest;
  Replica.fetch_complete primary ~seq:0 ~app_digest:zero ~client_rows:rows;
  Alcotest.(check int) "executed per the transferred table" 0 (Replica.pending_count primary)

(* --- a state transfer around a view change ------------------------------ *)

let status = Alcotest.testable (fun ppf st ->
    Format.pp_print_string ppf
      (match st with
      | Replica.Normal -> "Normal"
      | Replica.View_changing -> "View_changing"
      | Replica.Fetching -> "Fetching")) ( = )

let zero_rows_digest = Replica.checkpoint_digest ~app_digest:Base_crypto.Digest_t.zero ~client_rows:[]

let fetch_seq0 r = Replica.force_fetch r ~seq:0 ~digest:zero_rows_digest

let complete_seq0 r =
  Replica.fetch_complete r ~seq:0 ~app_digest:Base_crypto.Digest_t.zero ~client_rows:[]

let view_change_to_one g r sender =
  Replica.receive r
    (g.seal sender
       (Message.View_change
          {
            new_view = 1;
            last_stable = 0;
            stable_digest = Base_crypto.Digest_t.zero;
            prepared = [];
            replica = sender;
          }))

(* A fetch that interrupted a view change and is abandoned (a reboot, a
   re-target) returns to the view change with its escalation timer armed,
   and the fetch that replaces it returns there too. *)
let test_aborted_fetch_resumes_view_change () =
  let g = bare_group () in
  let r2, _ = enter_view_one g in
  fetch_seq0 r2;
  Alcotest.(check status) "fetching" Replica.Fetching (Replica.status r2);
  Queue.clear g.timers;
  Replica.abort_fetch r2;
  Alcotest.(check status) "back in the view change" Replica.View_changing (Replica.status r2);
  Alcotest.(check bool) "its timer armed" true
    (Queue.fold (fun armed tm -> armed || tm = Replica.Vc_timeout 1) false g.timers);
  fetch_seq0 r2;
  complete_seq0 r2;
  Alcotest.(check status) "the next fetch returns there too" Replica.View_changing
    (Replica.status r2)

(* A backup joins a view change (f+1 peers moved to view 1) while it
   fetches: it stays [Fetching], so nothing executes before the transfer
   ends, and returns to the view change afterwards. *)
let test_view_change_during_fetch () =
  let g = bare_group () in
  let r3 = g.make 3 in
  fetch_seq0 r3;
  List.iter (view_change_to_one g r3) [ 0; 2 ];
  Alcotest.(check int) "joined view 1" 1 (Replica.view r3);
  Alcotest.(check status) "still fetching" Replica.Fetching (Replica.status r3);
  complete_seq0 r3;
  Alcotest.(check status) "in the view change after the fetch" Replica.View_changing
    (Replica.status r3)

(* A backup in a view change receives the NEW-VIEW while it fetches: the
   view installs, the backup stays [Fetching] until the transfer ends,
   then runs normally. *)
let test_new_view_during_fetch () =
  let g = bare_group () in
  let r2, _ = enter_view_one g in
  fetch_seq0 r2;
  Replica.receive r2
    (g.seal 1
       (Message.New_view
          { nv_view = 1; nv_view_changes = [ (0, 0); (1, 0); (2, 0) ]; nv_pre_prepares = [] }));
  Alcotest.(check int) "view 1 installed" 1 (Replica.view r2);
  Alcotest.(check status) "still fetching" Replica.Fetching (Replica.status r2);
  complete_seq0 r2;
  Alcotest.(check status) "normal after the fetch" Replica.Normal (Replica.status r2)

(* The new primary, fetching, gathers its VIEW-CHANGE quorum: it installs
   the view and sends NEW-VIEW, but stays [Fetching] until the transfer
   ends. *)
let test_new_primary_installs_during_fetch () =
  let g = bare_group () in
  let r1 = g.make 1 in
  fetch_seq0 r1;
  List.iter (view_change_to_one g r1) [ 0; 2 ];
  Alcotest.(check bool) "NEW-VIEW sent" true
    (Queue.fold
       (fun sent (_, body) -> sent || match body with Message.New_view _ -> true | _ -> false)
       false g.sent);
  Alcotest.(check status) "still fetching" Replica.Fetching (Replica.status r1);
  complete_seq0 r1;
  Alcotest.(check status) "normal after the fetch" Replica.Normal (Replica.status r1)

(* --- asking for missed slots at once --------------------------------------- *)

(* The STATUS messages replica [r] sent, as replica [dst] receives them. *)
let statuses_to g ~dst r =
  Queue.fold
    (fun n (d, body) ->
      match body with
      | Message.Status st when d = dst && st.Message.st_replica = r -> n + 1
      | _ -> n)
    0 g.sent

(* Slot [seq] of view 0 commits at backup [r]: the primary's PRE-PREPARE,
   then the other backups' PREPAREs and everyone's COMMITs. *)
let commit_slot g r ~seq =
  let pp = pre_prepare ~view:0 ~seq [ client_request ~timestamp:(Int64.of_int seq) g.config.n ] in
  Replica.receive r (g.seal 0 (Message.Pre_prepare pp));
  let vote replica = { Message.view = 0; seq; digest = pp.digest; replica } in
  List.iter (fun p -> Replica.receive r (g.seal p (Message.Prepare (vote p)))) [ 1; 2 ];
  List.iter (fun p -> Replica.receive r (g.seal p (Message.Commit (vote p)))) [ 0; 1; 2 ]

(* A backup drops the PRE-PREPARE of slot 1 while it fetches.  Once the
   next slot commits above that hole, it asks the group with one STATUS,
   and later commits at the same execution point ask no more. *)
let test_gap_asks_once () =
  let g = bare_group () in
  let r3 = g.make 3 in
  fetch_seq0 r3;
  Replica.receive r3
    (g.seal 0 (Message.Pre_prepare (pre_prepare ~view:0 ~seq:1 [ client_request g.config.n ])));
  complete_seq0 r3;
  Queue.clear g.sent;
  let asked = (Replica.stats r3).catchup_status in
  commit_slot g r3 ~seq:2;
  Alcotest.(check int) "nothing executed past the hole" 0 (Replica.last_executed r3);
  Alcotest.(check int) "one STATUS on the commit above the hole" 1 (statuses_to g ~dst:0 3);
  commit_slot g r3 ~seq:3;
  commit_slot g r3 ~seq:4;
  Alcotest.(check int) "none on later commits at the same point" 1 (statuses_to g ~dst:0 3);
  Alcotest.(check int) "counted once" (asked + 1) (Replica.stats r3).catchup_status

(* A fetch that ends, and a reboot, each send a STATUS at once, so peers
   re-send what the group ordered meanwhile without waiting for the status
   timer. *)
let test_fetch_end_and_reboot_ask () =
  let g = bare_group () in
  let r3 = g.make 3 in
  fetch_seq0 r3;
  Alcotest.(check int) "none while fetching" 0 (statuses_to g ~dst:0 3);
  complete_seq0 r3;
  Alcotest.(check int) "one at the fetch's end" 1 (statuses_to g ~dst:0 3);
  Replica.on_reboot r3;
  Alcotest.(check int) "one on reboot" 2 (statuses_to g ~dst:0 3);
  Alcotest.(check int) "both counted" 2 (Replica.stats r3).catchup_status

(* --- timers across a reboot ------------------------------------------------ *)

let armed_vc_timeout g view =
  Queue.fold (fun armed tm -> armed || tm = Replica.Vc_timeout view) false g.timers

let was_cancelled g id = Queue.fold (fun found c -> found || c = id) false g.cancelled

(* A reboot shorter than the progress timeout leaves the timer armed
   before it pending.  The replica cancels it and arms a fresh one, so
   only one fires, a full timeout after the reboot. *)
let test_reboot_cancels_progress_timer () =
  let g = bare_group () in
  let r1 = g.make 1 and client = g.config.n in
  Replica.receive r1 (g.seal client (request client));
  Alcotest.(check bool) "progress timer armed" true (armed_vc_timeout g 0);
  let before = Queue.length g.timers in
  Queue.clear g.timers;
  Replica.on_reboot r1;
  Alcotest.(check bool) "the pre-reboot timer cancelled" true (was_cancelled g before);
  Alcotest.(check bool) "a fresh one armed" true (armed_vc_timeout g 0)

(* A replica that reboots in a view change, whose escalation timer fell
   due while it was down, gets that timer back for its view. *)
let test_reboot_rearms_view_change_timer () =
  let g = bare_group () in
  let r2, _ = enter_view_one g in
  Queue.clear g.timers;
  Replica.on_reboot r2;
  Alcotest.(check status) "still in the view change" Replica.View_changing (Replica.status r2);
  Alcotest.(check bool) "its timer armed" true (armed_vc_timeout g 1)

(* A backup times out with slot 1 prepared, then the slot's COMMITs
   arrive.  It executes the slot, and the escalation timer of its view
   change keeps running: progress restarts only the progress timer. *)
let test_execution_keeps_view_change_timer () =
  let g = bare_group () in
  let r2 = g.make 2 and client = g.config.n in
  Replica.receive r2 (g.seal client (request client));
  let pp = pre_prepare ~view:0 ~seq:1 [ client_request client ] in
  Replica.receive r2 (g.seal 0 (Message.Pre_prepare pp));
  let vote replica = { Message.view = 0; seq = 1; digest = pp.digest; replica } in
  List.iter (fun p -> Replica.receive r2 (g.seal p (Message.Prepare (vote p)))) [ 1; 3 ];
  Replica.on_timer r2 (Replica.Vc_timeout 0);
  Alcotest.(check bool) "escalation timer armed" true (armed_vc_timeout g 1);
  let escalation = Queue.length g.timers in
  List.iter (fun p -> Replica.receive r2 (g.seal p (Message.Commit (vote p)))) [ 0; 1; 3 ];
  Alcotest.(check int) "slot 1 executed" 1 (Replica.last_executed r2);
  Alcotest.(check status) "still in the view change" Replica.View_changing (Replica.status r2);
  Alcotest.(check bool) "its timer not cancelled" false (was_cancelled g escalation)

(* A replica that changed view alone and fetches abandons the view when a
   quorum of peers reports the old one: the fetch keeps its gate, and
   ends in normal operation, not back in the abandoned view change. *)
let test_abandon_view_change_while_fetching () =
  let g = bare_group () in
  let r2, _ = enter_view_one g in
  fetch_seq0 r2;
  List.iter
    (fun r ->
      Replica.receive r2
        (g.seal r (Message.Status { st_view = 0; st_last_exec = 0; st_h = 0; st_replica = r })))
    [ 0; 3 ];
  Alcotest.(check int) "back in view 0" 0 (Replica.view r2);
  Alcotest.(check status) "still fetching" Replica.Fetching (Replica.status r2);
  complete_seq0 r2;
  Alcotest.(check status) "normal after the fetch" Replica.Normal (Replica.status r2)

(* A timer that fired is gone from the host: neither the status tick nor
   the escalation timer of a view change is cancelled once it fired. *)
let test_fired_timers_not_cancelled () =
  let g = bare_group () in
  let r2, _ = enter_view_one g in
  let escalation = Queue.length g.timers in
  Replica.on_timer r2 (Replica.Vc_timeout 1);
  Alcotest.(check int) "escalated to view 2" 2 (Replica.view r2);
  Alcotest.(check bool) "the escalation timer not cancelled" false (was_cancelled g escalation);
  Replica.start_status_timer r2;
  let tick = Queue.length g.timers in
  Replica.on_timer r2 Replica.Status_tick;
  Alcotest.(check bool) "the next tick armed" true (Queue.length g.timers > tick);
  Alcotest.(check bool) "the status tick not cancelled" false (was_cancelled g tick)

(* --- vouching for a request the primary missed ---------------------------- *)

(* Replica [from]'s voucher for [client]'s request at timestamp 1: the bare
   request body, sealed under the replica's own keys. *)
let voucher ?(operation = "op") g ~from client =
  g.seal from (Message.Request { (client_request client) with operation })

let proposed g = List.length (pre_prepares_to g 1)

(* One Byzantine backup can send any request body it likes under its own
   keys.  However often it repeats one, the primary orders nothing. *)
let test_lone_voucher_orders_nothing () =
  let g = bare_group () in
  let primary = g.make 0 and client = g.config.n in
  for _ = 1 to 5 do
    Replica.receive primary (voucher g ~from:1 client)
  done;
  Alcotest.(check int) "nothing proposed" 0 (proposed g);
  Alcotest.(check int) "nothing pending" 0 (Replica.pending_count primary);
  Alcotest.(check int) "no vouched proposal" 0 (Replica.stats primary).vouched_proposals

(* f+1 vouchers count only for the identical request: two that differ in
   the operation do not combine, and a third matching the first does. *)
let test_differing_vouchers_do_not_combine () =
  let g = bare_group () in
  let primary = g.make 0 and client = g.config.n in
  Replica.receive primary (voucher g ~from:1 ~operation:"a" client);
  Replica.receive primary (voucher g ~from:2 ~operation:"b" client);
  Alcotest.(check int) "nothing proposed" 0 (proposed g);
  Replica.receive primary (voucher g ~from:3 ~operation:"a" client);
  match pre_prepares_to g 1 with
  | [ pp ] ->
    Alcotest.(check (list string)) "the request two replicas vouched for" [ "a" ]
      (List.map (fun (r : Message.request) -> r.operation) pp.requests);
    Alcotest.(check int) "counted" 1 (Replica.stats primary).vouched_proposals
  | pps -> Alcotest.failf "%d PRE-PREPAREs, expected 1" (List.length pps)

(* The rebooted primary fetches when the vouchers arrive.  It keeps them,
   and proposes the request once the fetch completes. *)
let test_vouchers_kept_through_fetch () =
  let g = bare_group () in
  let primary = g.make 0 and client = g.config.n in
  fetch_seq0 primary;
  List.iter (fun from -> Replica.receive primary (voucher g ~from client)) [ 1; 2 ];
  Alcotest.(check int) "nothing proposed while fetching" 0 (proposed g);
  Alcotest.(check int) "pending" 1 (Replica.pending_count primary);
  complete_seq0 primary;
  Alcotest.(check int) "proposed after the fetch" 1 (proposed g)

(* The requests of client [g.config.n] sent to replica 0. *)
let vouchers g =
  Queue.fold
    (fun n (dst, body) ->
      match body with
      | Message.Request q when dst = 0 && q.Message.client = g.config.n -> n + 1
      | _ -> n)
    0 g.sent

let primary_status ?(last_exec = 0) sender =
  Message.Status { st_view = 0; st_last_exec = last_exec; st_h = 0; st_replica = sender }

(* A backup vouches for a request it holds and saw in no PRE-PREPARE when
   its primary's STATUS shows nothing in flight and the primary was silent
   since the request arrived: once per request, and not while it holds a
   PRE-PREPARE that neither it nor the primary has executed. *)
let test_backup_vouches_once () =
  let g = bare_group ~n_clients:2 () in
  let backup = g.make 1 and client = g.config.n in
  Replica.receive backup (g.seal client (request client));
  Replica.receive backup (g.seal 2 (primary_status 2));
  Alcotest.(check int) "no voucher on a backup's STATUS" 0 (vouchers g);
  Replica.receive backup (g.seal 0 (primary_status 0));
  Alcotest.(check int) "one voucher" 1 (vouchers g);
  Replica.receive backup (g.seal 0 (primary_status 0));
  Alcotest.(check int) "once per request" 1 (vouchers g);
  Alcotest.(check int) "counted" 1 (Replica.stats backup).vouchers_sent;
  (* Replica 2 holds the same request and slot 1, another client's. *)
  let slot_1 = Message.Pre_prepare (pre_prepare ~view:0 ~seq:1 [ client_request (client + 1) ]) in
  let other = g.make 2 in
  Replica.receive other (g.seal 0 slot_1);
  Replica.receive other (g.seal client (request client));
  Replica.receive other (g.seal 0 (primary_status 0));
  Alcotest.(check int) "none while slot 1 is in flight" 1 (vouchers g);
  Replica.receive other (g.seal 0 (primary_status ~last_exec:1 0));
  Alcotest.(check int) "none for a request heard before the primary spoke" 1 (vouchers g);
  let late = g.make 2 in
  Replica.receive late (g.seal 0 slot_1);
  Replica.receive late (g.seal 0 (primary_status 0));
  Replica.receive late (g.seal client (request client));
  Replica.receive late (g.seal 0 (primary_status ~last_exec:1 0));
  Alcotest.(check int) "one once the primary executed it" 2 (vouchers g);
  (* Replica 3 executed slot 1, which the primary rebooted through: the
     primary only has to catch up on a committed slot. *)
  let ahead = g.make 3 in
  commit_slot g ahead ~seq:1;
  Alcotest.(check int) "slot 1 executed" 1 (Replica.last_executed ahead);
  Replica.receive ahead (g.seal client (request ~timestamp:2L client));
  Replica.receive ahead (g.seal 0 (primary_status 0));
  Alcotest.(check int) "one while the primary lags on an executed slot" 3 (vouchers g);
  (* With one slot in flight the primary queues the next request, so a lag
     of one executed slot no longer shows an empty queue. *)
  let g = bare_group ~max_inflight:1 () in
  let ahead = g.make 3 in
  commit_slot g ahead ~seq:1;
  Replica.receive ahead (g.seal client (request ~timestamp:2L client));
  Replica.receive ahead (g.seal 0 (primary_status 0));
  Alcotest.(check int) "none while the primary may be queueing" 0 (vouchers g)

let suite =
  [
    Alcotest.test_case "safety: two clients + loss" `Quick test_safety_two_clients_with_loss;
    Alcotest.test_case "sequential consistency" `Quick test_sequential_consistency_of_results;
    Alcotest.test_case "equivocating primary is safe" `Quick test_equivocating_primary_safe;
    Alcotest.test_case "partition blocks, heal resumes" `Quick test_partition_blocks_then_heals;
    Alcotest.test_case "successive primary failures" `Quick test_successive_primary_failures;
    Alcotest.test_case "a muted replica keeps its status timer" `Quick
      test_muted_replica_keeps_status_timer;
    Alcotest.test_case "attack windows are per cell" `Quick test_attack_windows_per_cell;
    Alcotest.test_case "a behaviour outside the system is ignored" `Quick
      test_behavior_out_of_range_ignored;
    Alcotest.test_case "MAC forgery rejected" `Quick test_mac_forgery_rejected;
    Alcotest.test_case "pending count matches client table" `Quick
      test_pending_count_matches_table;
    Alcotest.test_case "checkpoints advance everywhere" `Quick test_checkpoint_digests_match;
    Alcotest.test_case "null requests after view change" `Quick
      test_null_requests_after_view_change;
    Alcotest.test_case "read-only with replica down" `Quick test_read_only_with_replica_down;
    Alcotest.test_case "execute path: one batch, four kinds" `Quick test_execute_path_batch;
    Alcotest.test_case "PRE-PREPARE re-send after key refresh" `Quick
      test_pre_prepare_resend_after_key_refresh;
    Alcotest.test_case "queued copies of a request batched once" `Quick
      test_copies_batched_once;
    Alcotest.test_case "backup relays a retransmission only" `Quick
      test_backup_relays_retransmission;
    Alcotest.test_case "early PRE-PREPARE accepted after NEW-VIEW" `Quick
      test_early_pre_prepare_replayed;
    Alcotest.test_case "early PRE-PREPARE buffer bounded by the window" `Quick
      test_early_pre_prepare_buffer_bound;
    Alcotest.test_case "early PRE-PREPAREs dropped on abandonment" `Quick
      test_early_pre_prepares_dropped_on_abandon;
    Alcotest.test_case "batch repeating a request rejected" `Quick
      test_repeated_request_rejected;
    Alcotest.test_case "requests survive a state transfer" `Quick
      test_fetch_keeps_pending_requests;
    Alcotest.test_case "aborted fetch resumes the view change" `Quick
      test_aborted_fetch_resumes_view_change;
    Alcotest.test_case "view change during a fetch" `Quick test_view_change_during_fetch;
    Alcotest.test_case "NEW-VIEW during a fetch" `Quick test_new_view_during_fetch;
    Alcotest.test_case "new primary installs during a fetch" `Quick
      test_new_primary_installs_during_fetch;
    Alcotest.test_case "a commit above a hole asks once" `Quick test_gap_asks_once;
    Alcotest.test_case "fetch end and reboot ask at once" `Quick test_fetch_end_and_reboot_ask;
    Alcotest.test_case "a reboot cancels the progress timer" `Quick
      test_reboot_cancels_progress_timer;
    Alcotest.test_case "a reboot re-arms the view-change timer" `Quick
      test_reboot_rearms_view_change_timer;
    Alcotest.test_case "execution keeps the view-change timer" `Quick
      test_execution_keeps_view_change_timer;
    Alcotest.test_case "a lone view change abandoned while fetching" `Quick
      test_abandon_view_change_while_fetching;
    Alcotest.test_case "a fired timer is never cancelled" `Quick test_fired_timers_not_cancelled;
    Alcotest.test_case "one backup's vouchers order nothing" `Quick
      test_lone_voucher_orders_nothing;
    Alcotest.test_case "differing vouchers do not combine" `Quick
      test_differing_vouchers_do_not_combine;
    Alcotest.test_case "vouchers kept through a fetch" `Quick test_vouchers_kept_through_fetch;
    Alcotest.test_case "a backup vouches once, with nothing in flight" `Quick
      test_backup_vouches_once;
  ]
