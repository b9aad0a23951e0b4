(* Byzantine-input hardening: malformed wire bytes must never crash a
   replica.  They are counted ([stats.rejected_decode], exported
   per replica by the runtime's report) and dropped, and the system keeps serving valid requests. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Runtime = Base_core.Runtime
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
  Alcotest.(check int) "report agrees" (List.length garbage)
    (Helpers.reported_stat sys 0 "rejected_decode");
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
  Alcotest.(check int) "report agrees" 1 (Helpers.reported_stat sys 0 "rejected_macs")

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

(* A Byzantine primary orders a request under an id no client holds: above
   the principals (7 is the first id past them with f = 1 and three
   clients, 1000 far past), or a replica's (2).  Backup 1 gets the
   PRE-PREPARE and genuine PREPAREs and COMMITs from replicas 2 and 3.
   Executing it would seal a reply for a principal with no key, raising
   out of the replica, or send a reply to a replica.  The PRE-PREPARE is
   insane: counted, and nothing executes.  So is a replica's request as
   its own client. *)
let test_foreign_client_ids_rejected () =
  let config = Base_bft.Types.make_config ~f:1 ~n_clients:3 () in
  List.iter
    (fun client ->
      let chains = Base_crypto.Auth.create ~seed:11L ~n_principals:config.n_principals in
      let executed = ref [] in
      let r1 =
        Helpers.bare_replica ~config ~chains 1 ~on_execute:(fun ~read_only:_ op ->
            executed := op :: !executed)
      in
      let seal sender body = M.seal chains.(sender) ~sender ~n_receivers:config.n body in
      let request = { M.client; timestamp = 1L; operation = "set:0:evil"; read_only = false } in
      let digest = Digest.of_string (M.encode_batch [ request ] ~nondet:"") in
      Replica.receive r1
        (seal 0 (M.Pre_prepare { view = 0; seq = 1; digest; requests = [ request ]; nondet = "" }));
      List.iter
        (fun replica ->
          let vote = { M.view = 0; seq = 1; digest; replica } in
          Replica.receive r1 (seal replica (M.Prepare vote));
          Replica.receive r1 (seal replica (M.Commit vote)))
        [ 2; 3 ];
      let name = Printf.sprintf "client %d: " client in
      Alcotest.(check (list string)) (name ^ "nothing executed") [] !executed;
      Alcotest.(check int) (name ^ "nothing executed") 0 (Replica.last_executed r1);
      Alcotest.(check int) (name ^ "PRE-PREPARE insane") 1 (Replica.stats r1).rejected_insane)
    [ 7; 1000; 2 ];
  let chains = Base_crypto.Auth.create ~seed:11L ~n_principals:config.n_principals in
  let r1 = Helpers.bare_replica ~config ~chains 1 in
  let own = { M.client = 2; timestamp = 1L; operation = "set:0:evil"; read_only = false } in
  Replica.receive r1 (M.seal chains.(2) ~sender:2 ~n_receivers:config.n (M.Request own));
  Alcotest.(check int) "a replica's own request is insane" 1 (Replica.stats r1).rejected_insane;
  Alcotest.(check int) "and not pending" 0 (Replica.pending_count r1)

let suite =
  [
    Alcotest.test_case "garbage bytes: counted, replica live" `Quick
      test_garbage_counted_and_dropped;
    Alcotest.test_case "well-formed body, bad MAC" `Quick test_wellformed_body_bad_mac;
    Alcotest.test_case "client principals cannot vote" `Quick test_client_votes_rejected;
  ]

(* Run after [Test_fuzz_decode.suite], so the cases before keep their
   positions in the suite. *)
let appended =
  [
    Alcotest.test_case "orders under a non-client id are insane" `Quick
      test_foreign_client_ids_rejected;
  ]
