(* Byzantine-input hardening: malformed wire bytes must never crash a
   replica.  They are counted ([stats.rejected_decode], the [bft.reject.*]
   metrics) and dropped, and the system keeps serving valid requests. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Runtime = Base_core.Runtime
module Metrics = Base_obs.Metrics
module Digest = Base_crypto.Digest_t

let valid_prepare_bytes () =
  M.encode_body (M.Prepare { view = 0; seq = 1; digest = Digest.of_string "d"; replica = 1 })

let test_garbage_counted_and_dropped () =
  let sys, _ = Helpers.make_system () in
  let r0 = (Runtime.replica sys 0).replica in
  let valid = valid_prepare_bytes () in
  let garbage =
    [
      "";
      "\x00";
      "\x00\x00\x00\x63";  (* unknown tag *)
      String.make 40 '\xff';
      String.sub valid 0 (String.length valid - 2);  (* truncated real message *)
      valid ^ "\x00\x00\x00\x00";  (* trailing junk *)
    ]
  in
  List.iter (fun raw -> Replica.receive_wire r0 ~sender:1 ~macs:[||] raw) garbage;
  Alcotest.(check int) "every garbage message counted" (List.length garbage)
    (Replica.stats r0).rejected_decode;
  Alcotest.(check int) "metrics counter agrees" (List.length garbage)
    (Metrics.counter_value (Metrics.counter (Runtime.metrics sys) "bft.reject.decode"));
  (* The replica stays live: the system still executes client requests. *)
  Alcotest.(check string) "set still works" "ok" (Helpers.set sys ~client:0 0 "alive");
  Alcotest.(check string) "get sees the write" "alive"
    (Helpers.value_part (Helpers.get sys ~client:0 0))

let test_wellformed_body_bad_mac () =
  (* Well-formed bytes make it past the decoder and into the normal MAC
     check, where a forged authenticator is rejected and counted. *)
  let sys, _ = Helpers.make_system () in
  let r0 = (Runtime.replica sys 0).replica in
  Replica.receive_wire r0 ~sender:1 ~macs:(Array.make 8 "00000000") (valid_prepare_bytes ());
  Alcotest.(check int) "decode accepted" 0 (Replica.stats r0).rejected_decode;
  Alcotest.(check int) "MAC rejected and counted" 1 (Replica.stats r0).rejected_macs;
  Alcotest.(check int) "mac metrics counter agrees" 1
    (Metrics.counter_value (Metrics.counter (Runtime.metrics sys) "bft.reject.mac"))

(* Every principal shares a MAC key with every replica, so a client's
   PREPARE or COMMIT authenticates.  With f = 1 and replicas 2 and 3 down,
   backup 1 accepts the primary's PRE-PREPARE and holds its own prepare and
   commit; one forged PREPARE from client principal 5 and forged COMMITs
   from principals 5 and 6 would complete both certificates.  Only replicas
   vote: each forged message is counted as insane and nothing executes. *)
let test_client_votes_rejected () =
  let config = Base_bft.Types.make_config ~f:1 ~n_clients:3 () in
  let chains = Base_crypto.Auth.create ~seed:11L ~n_principals:config.n_principals in
  let executed = ref [] in
  let r1 =
    Helpers.bare_replica ~config ~chains 1 ~on_execute:(fun ~read_only:_ op ->
        executed := op :: !executed)
  in
  let seal sender body = M.seal chains.(sender) ~sender ~n_receivers:config.n body in
  let request = { M.client = 4; timestamp = 0L; operation = "set:0:evil"; read_only = false } in
  let digest = Digest.of_string (M.encode_batch [ request ] ~nondet:"") in
  Replica.receive r1
    (seal 0 (M.Pre_prepare { view = 0; seq = 1; digest; requests = [ request ]; nondet = "" }));
  let forged =
    [
      seal 5 (M.Prepare { view = 0; seq = 1; digest; replica = 5 });
      seal 5 (M.Commit { view = 0; seq = 1; digest; replica = 5 });
      seal 6 (M.Commit { view = 0; seq = 1; digest; replica = 6 });
    ]
  in
  List.iter (Replica.receive r1) forged;
  Alcotest.(check (list string)) "nothing executed" [] !executed;
  Alcotest.(check int) "forged votes counted as insane" (List.length forged)
    (Replica.stats r1).rejected_insane;
  Alcotest.(check int) "MACs were genuine" 0 (Replica.stats r1).rejected_macs

let suite =
  [
    Alcotest.test_case "garbage bytes: counted, replica live" `Quick
      test_garbage_counted_and_dropped;
    Alcotest.test_case "well-formed body, bad MAC" `Quick test_wellformed_body_bad_mac;
    Alcotest.test_case "client principals cannot vote" `Quick test_client_votes_rejected;
  ]
