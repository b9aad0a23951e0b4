(* Unit tests of the client protocol against a scripted transport: reply
   quorums, Byzantine reply rejection, retransmission, and the read-only
   fallback — all without a simulator. *)

module Client = Base_bft.Client
module Message = Base_bft.Message
module Types = Base_bft.Types
module Auth = Base_crypto.Auth

type world = {
  config : Types.config;
  chains : Auth.keychain array;
  client : Client.t;
  sent : (int * Message.body) Queue.t;  (* (dst, body) from the client *)
  timers : (int * int64) Queue.t;  (* (id, request timestamp) armed *)
  mutable now : int64;
  mutable next_timer : int;
}

let make_world () =
  let config = Types.make_config ~f:1 ~n_clients:1 () in
  let chains = Auth.create ~seed:3L ~n_principals:config.Types.n_principals in
  let sent = Queue.create () in
  let timers = Queue.create () in
  let w_ref = ref None in
  let net =
    {
      Message.send = (fun ~dst env -> Queue.add (dst, env.Message.body) sent);
      set_timer =
        (fun ~after_us:_ ts ->
          let w = Option.get !w_ref in
          w.next_timer <- w.next_timer + 1;
          Queue.add (w.next_timer, ts) timers;
          w.next_timer);
      cancel_timer = (fun _ -> ());
      now_us = (fun () -> (Option.get !w_ref).now);
    }
  in
  let client = Client.create ~config ~id:4 ~keychain:chains.(4) ~net () in
  let w = { config; chains; client; sent; timers; now = 0L; next_timer = 0 } in
  w_ref := Some w;
  w

let drain q = Queue.fold (fun acc x -> x :: acc) [] q |> List.rev

(* Fire the most recently armed timer, as the transport would on timeout. *)
let fire_latest_timer w =
  match List.rev (drain w.timers) with
  | (_, ts) :: _ -> Client.on_timer w.client ts
  | [] -> Alcotest.fail "no timer armed"

let reply w ~replica ~timestamp ~result =
  let body =
    Message.Reply { view = 0; timestamp; client = 4; replica; result }
  in
  let env = Message.seal_for w.chains.(replica) ~sender:replica ~receiver:4 body in
  Client.receive w.client env

let test_request_broadcast () =
  let w = make_world () in
  Client.invoke w.client ~operation:"op" (fun _ -> ());
  let dsts = List.map fst (drain w.sent) in
  Alcotest.(check (list int)) "request to all replicas" [ 0; 1; 2; 3 ] (List.sort compare dsts)

let test_rw_quorum_f_plus_1 () =
  let w = make_world () in
  let result = ref None in
  Client.invoke w.client ~operation:"op" (fun r -> result := Some r);
  reply w ~replica:0 ~timestamp:0L ~result:"answer";
  Alcotest.(check (option string)) "one reply is not enough" None !result;
  reply w ~replica:1 ~timestamp:0L ~result:"answer";
  Alcotest.(check (option string)) "f+1 matching accepted" (Some "answer") !result

let test_byzantine_reply_outvoted () =
  let w = make_world () in
  let result = ref None in
  Client.invoke w.client ~operation:"op" (fun r -> result := Some r);
  reply w ~replica:0 ~timestamp:0L ~result:"lie";
  reply w ~replica:1 ~timestamp:0L ~result:"truth";
  Alcotest.(check (option string)) "no quorum yet" None !result;
  reply w ~replica:2 ~timestamp:0L ~result:"truth";
  Alcotest.(check (option string)) "truth wins" (Some "truth") !result

let test_duplicate_replies_not_double_counted () =
  let w = make_world () in
  let result = ref None in
  Client.invoke w.client ~operation:"op" (fun r -> result := Some r);
  reply w ~replica:0 ~timestamp:0L ~result:"x";
  reply w ~replica:0 ~timestamp:0L ~result:"x";
  reply w ~replica:0 ~timestamp:0L ~result:"x";
  Alcotest.(check (option string)) "same replica counted once" None !result

let test_stale_timestamp_ignored () =
  let w = make_world () in
  let r1 = ref None in
  Client.invoke w.client ~operation:"first" (fun r -> r1 := Some r);
  reply w ~replica:0 ~timestamp:0L ~result:"a";
  reply w ~replica:1 ~timestamp:0L ~result:"a";
  Alcotest.(check (option string)) "first done" (Some "a") !r1;
  let r2 = ref None in
  Client.invoke w.client ~operation:"second" (fun r -> r2 := Some r);
  (* Replays of the old reply must not satisfy the new request. *)
  reply w ~replica:2 ~timestamp:0L ~result:"a";
  reply w ~replica:3 ~timestamp:0L ~result:"a";
  Alcotest.(check (option string)) "replays ignored" None !r2

let test_ro_needs_2f_plus_1 () =
  let w = make_world () in
  let result = ref None in
  Client.invoke w.client ~read_only:true ~operation:"ro" (fun r -> result := Some r);
  reply w ~replica:0 ~timestamp:0L ~result:"v";
  reply w ~replica:1 ~timestamp:0L ~result:"v";
  Alcotest.(check (option string)) "2 matching not enough for ro" None !result;
  reply w ~replica:2 ~timestamp:0L ~result:"v";
  Alcotest.(check (option string)) "2f+1 matching accepted" (Some "v") !result

let test_ro_fallback_after_retries () =
  let w = make_world () in
  Client.invoke w.client ~read_only:true ~operation:"ro" (fun _ -> ());
  Queue.clear w.sent;
  (* First timeout: plain retransmission, still read-only. *)
  fire_latest_timer w;
  let ro_retry =
    List.exists
      (function _, Message.Request r -> r.Message.read_only | _ -> false)
      (drain w.sent)
  in
  Alcotest.(check bool) "first retry still read-only" true ro_retry;
  Queue.clear w.sent;
  (* Second timeout: falls back to a regular ordered request. *)
  fire_latest_timer w;
  let fell_back =
    List.exists
      (function _, Message.Request r -> not r.Message.read_only | _ -> false)
      (drain w.sent)
  in
  Alcotest.(check bool) "fallback to read-write" true fell_back

let test_queueing_outstanding_ops () =
  let w = make_world () in
  let order = ref [] in
  Client.invoke w.client ~operation:"one" (fun r -> order := r :: !order);
  Client.invoke w.client ~operation:"two" (fun r -> order := r :: !order);
  Alcotest.(check int) "both tracked" 2 (Client.outstanding w.client);
  reply w ~replica:0 ~timestamp:0L ~result:"r1";
  reply w ~replica:1 ~timestamp:0L ~result:"r1";
  (* Completing the first dispatches the second (timestamp 1). *)
  reply w ~replica:0 ~timestamp:1L ~result:"r2";
  reply w ~replica:1 ~timestamp:1L ~result:"r2";
  Alcotest.(check (list string)) "in order" [ "r2"; "r1" ] !order;
  Alcotest.(check int) "drained" 0 (Client.outstanding w.client)

let test_forged_reply_rejected () =
  let w = make_world () in
  let result = ref None in
  Client.invoke w.client ~operation:"op" (fun r -> result := Some r);
  (* Replica 3 forges replies claiming to be replicas 0 and 1. *)
  List.iter
    (fun claimed ->
      let body =
        Message.Reply { view = 0; timestamp = 0L; client = 4; replica = claimed; result = "evil" }
      in
      let env =
        {
          (Message.seal_for w.chains.(3) ~sender:3 ~receiver:4 body) with
          Message.sender = claimed;
        }
      in
      Client.receive w.client env)
    [ 0; 1 ];
  Alcotest.(check (option string)) "forged macs rejected" None !result

(* Regression (linearizability hole): the read-only fallback must not reuse
   the read-only attempt's timestamp — late tentative replies from the
   abandoned attempt would otherwise count toward the weaker f+1 ordered
   quorum, completing a "read" from f+1 stale tentative replies. *)
let test_ro_fallback_ignores_stale_tentative () =
  let w = make_world () in
  let result = ref None in
  Client.invoke w.client ~read_only:true ~operation:"ro" (fun r -> result := Some r);
  (* Two timeouts: retransmit, then fall back to an ordered request. *)
  fire_latest_timer w;
  fire_latest_timer w;
  (* Late tentative replies from the aborted read-only attempt (timestamp 0)
     arrive only now — f+1 of them, which would complete the fallback if the
     timestamp were shared. *)
  reply w ~replica:0 ~timestamp:0L ~result:"stale";
  reply w ~replica:1 ~timestamp:0L ~result:"stale";
  Alcotest.(check (option string)) "stale tentative replies ignored" None !result;
  (* The ordered replies for the fallback's own (fresh) timestamp win. *)
  reply w ~replica:2 ~timestamp:1L ~result:"fresh";
  reply w ~replica:3 ~timestamp:1L ~result:"fresh";
  Alcotest.(check (option string)) "ordered result accepted" (Some "fresh") !result

let test_ro_fallback_uses_fresh_timestamp () =
  let w = make_world () in
  Client.invoke w.client ~read_only:true ~operation:"ro" (fun _ -> ());
  fire_latest_timer w;
  Queue.clear w.sent;
  fire_latest_timer w;
  List.iter
    (function
      | _, Message.Request r ->
        Alcotest.(check bool) "fallback is ordered" false r.Message.read_only;
        Alcotest.(check int64) "fallback timestamp bumped" 1L r.Message.timestamp
      | _ -> Alcotest.fail "unexpected message")
    (drain w.sent);
  (* The next request must not collide with the bumped timestamp. *)
  let result = ref None in
  reply w ~replica:0 ~timestamp:1L ~result:"v";
  reply w ~replica:1 ~timestamp:1L ~result:"v";
  Client.invoke w.client ~operation:"next" (fun r -> result := Some r);
  reply w ~replica:0 ~timestamp:2L ~result:"w";
  reply w ~replica:1 ~timestamp:2L ~result:"w";
  Alcotest.(check (option string)) "timestamps stay monotonic" (Some "w") !result

(* Regression (D3 class): the winner must not depend on the order the
   replies were recorded in or on the replica ids that sent them.  A result
   wins once f+1 replicas agree on it, and a replica that changes its reply
   moves its vote. *)
let test_quorum_winner_deterministic () =
  let winner_of replies =
    let w = make_world () in
    let result = ref None in
    Client.invoke w.client ~operation:"op" (fun r -> result := Some r);
    List.iter (fun (replica, r) -> reply w ~replica ~timestamp:0L ~result:r) replies;
    !result
  in
  Alcotest.(check (option string))
    "replica ids irrelevant" (Some "aa")
    (winner_of [ (0, "zz"); (2, "aa"); (3, "aa") ]);
  Alcotest.(check (option string))
    "insertion order irrelevant" (Some "aa")
    (winner_of [ (3, "aa"); (0, "zz"); (2, "aa") ]);
  Alcotest.(check (option string))
    "the first quorum wins" (Some "zz")
    (winner_of [ (0, "zz"); (1, "zz"); (2, "aa"); (3, "aa") ]);
  Alcotest.(check (option string)) "no quorum" None (winner_of [ (0, "x"); (1, "y") ]);
  Alcotest.(check (option string))
    "a changed reply withdraws its vote" None
    (winner_of [ (0, "x"); (0, "y"); (1, "x") ]);
  Alcotest.(check (option string))
    "and gives it to its new result" (Some "y")
    (winner_of [ (0, "x"); (0, "y"); (1, "x"); (2, "y") ])

let test_latency_histogram_streams () =
  let w = make_world () in
  for i = 0 to 2 do
    w.now <- Int64.add w.now 1_000L;
    Client.invoke w.client ~operation:"op" (fun _ -> ());
    w.now <- Int64.add w.now 500L;
    reply w ~replica:0 ~timestamp:(Int64.of_int i) ~result:"r";
    reply w ~replica:1 ~timestamp:(Int64.of_int i) ~result:"r"
  done;
  let s = Client.stats w.client in
  Alcotest.(check int) "three completions observed" 3
    (Base_obs.Metrics.hist_count s.Client.latency_us);
  Alcotest.(check int) "counter matches" 3 s.Client.completed

let suite =
  [
    Alcotest.test_case "request broadcast" `Quick test_request_broadcast;
    Alcotest.test_case "rw quorum is f+1" `Quick test_rw_quorum_f_plus_1;
    Alcotest.test_case "byzantine reply outvoted" `Quick test_byzantine_reply_outvoted;
    Alcotest.test_case "duplicates not double-counted" `Quick
      test_duplicate_replies_not_double_counted;
    Alcotest.test_case "stale timestamps ignored" `Quick test_stale_timestamp_ignored;
    Alcotest.test_case "read-only needs 2f+1" `Quick test_ro_needs_2f_plus_1;
    Alcotest.test_case "read-only fallback" `Quick test_ro_fallback_after_retries;
    Alcotest.test_case "outstanding ops queue" `Quick test_queueing_outstanding_ops;
    Alcotest.test_case "forged replies rejected" `Quick test_forged_reply_rejected;
    Alcotest.test_case "ro fallback ignores stale tentative replies" `Quick
      test_ro_fallback_ignores_stale_tentative;
    Alcotest.test_case "ro fallback bumps timestamp" `Quick
      test_ro_fallback_uses_fresh_timestamp;
    Alcotest.test_case "quorum winner deterministic" `Quick test_quorum_winner_deterministic;
    Alcotest.test_case "latency histogram streams" `Quick test_latency_histogram_streams;
  ]
