(* Batch-MAC and tamper suite.

   The hot path seals a broadcast by hashing the body once and MACing the
   32-byte digest per receiver with SipHash-2-4 under the pair's session
   key.  This suite pins what that authenticates:

   - {e per pair}: a batch authenticator is the vector of per-receiver
     MACs, each accepted by its receiver and by nobody else, and a key
     refresh voids every tag made before it;
   - {e shard binding}: shard k > 0 MACs the digest with the shard byte
     appended, exactly as if that byte were part of the message;
   - {e tamper}: because MACs bind the wire digest, corrupting any single
     in-flight byte voids verification at the receiver and is counted in
     the replica's [rejected_macs] / [rejected_decode] — exercised end-to-end through
     the runtime's corruption model, not just at the envelope level. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Auth = Base_crypto.Auth
module Sha256 = Base_crypto.Sha256
module Gen = QCheck2.Gen

let chains = Auth.create ~seed:31L ~n_principals:8

(* A MAC made for [receiver] verifies there, and at no other receiver:
   principal [other] checks it under the key it shares with [sender],
   which is not the key it was made under — and a third principal cannot
   pass its own MAC off as [sender]'s. *)
let pairwise_keys =
  Helpers.qtest "check accepts its pair's MAC, rejects another pair's"
    (Gen.pair Gen.string (Gen.triple (Gen.int_bound 7) (Gen.int_bound 7) (Gen.int_bound 7)))
    (fun (msg, (sender, receiver, other)) ->
      let digest = Sha256.digest msg in
      let mac = Auth.mac chains.(sender) ~receiver digest in
      Auth.check chains.(receiver) ~sender digest ~mac
      && (other = receiver || not (Auth.check chains.(other) ~sender digest ~mac))
      && (other = sender
         || not (Auth.check chains.(receiver) ~sender digest ~mac:(Auth.mac chains.(other) ~receiver digest))))

let authenticator_equivalence =
  Helpers.qtest "authenticator = per-receiver MAC vector" Gen.string (fun msg ->
      let digest = Sha256.digest msg in
      let batched = Auth.authenticator chains.(3) ~n:8 digest in
      let naive = Array.init 8 (fun receiver -> Auth.mac chains.(3) ~receiver digest) in
      batched = naive)

(* Proactive recovery refreshes a principal's keys: every tag it made or
   was sent before the refresh fails after it, in both directions, while
   tags made under the new keys verify.  Its own chain array, so the
   refresh does not re-key the shared [chains]. *)
let refresh_voids_tags =
  Helpers.qtest "a tag made before a key refresh fails after it"
    (Gen.pair Gen.string (Gen.pair (Gen.int_range 1 4) (Gen.int_bound 4)))
    (fun (msg, (refreshed, peer)) ->
      let chains = Auth.create ~seed:32L ~n_principals:5 in
      let peer = if peer = refreshed then 0 else peer in
      let digest = Sha256.digest msg in
      let sent = Auth.mac chains.(refreshed) ~receiver:peer ~suffix:'\001' digest in
      let received = Auth.mac chains.(peer) ~receiver:refreshed digest in
      Auth.check chains.(peer) ~sender:refreshed ~suffix:'\001' digest ~mac:sent
      && Auth.check chains.(refreshed) ~sender:peer digest ~mac:received
      &&
      (Auth.refresh_keys chains refreshed;
       (not (Auth.check chains.(peer) ~sender:refreshed ~suffix:'\001' digest ~mac:sent))
       && (not (Auth.check chains.(refreshed) ~sender:peer digest ~mac:received))
       && Auth.check chains.(peer) ~sender:refreshed digest
            ~mac:(Auth.mac chains.(refreshed) ~receiver:peer digest)))

(* Shard k > 0 binds its envelopes by MACing the digest with the shard byte
   appended.  That byte reaches the MAC as a suffix instead of through
   [raw ^ byte]; the tags must be the ones the concatenation produces, on
   the broadcast and the unicast path, including shards past 255, whose
   byte wraps (shard 256 appends '\000'). *)
let shard_suffix_mac_equivalence =
  Helpers.qtest "shard-k MAC = MAC over digest ^ byte"
    (Gen.pair Test_bft_wire.gen_body (Gen.pair (Gen.int_range 1 600) (Gen.int_bound 7)))
    (fun (body, (shard, receiver)) ->
      let concatenated env =
        let raw = Base_crypto.Digest_t.raw (M.envelope_digest env) in
        Auth.mac chains.(2) ~receiver (raw ^ String.make 1 (Char.chr (shard land 0xff)))
      in
      let env = M.seal chains.(2) ~shard ~sender:2 ~n_receivers:8 body in
      let uni = M.seal_for chains.(2) ~shard ~sender:2 ~receiver body in
      String.equal env.M.macs.(receiver) (concatenated env)
      && String.equal uni.M.macs.(0) (concatenated uni)
      && M.verify chains.(receiver) ~receiver env
      && M.verify chains.(receiver) ~receiver uni
      (* The byte is bound: the same MACs do not verify as shard 0. *)
      && not (M.verify chains.(receiver) ~receiver { env with M.shard = 0 }))

(* End-to-end tamper: corrupt every protocol message on the primary->backup
   link (single-byte wire flips via the runtime's corruption model) and let
   the system run.  Every corrupted delivery must be rejected — counted as
   a MAC or decode reject, nothing slips through — while the protocol
   masks the lossy link and keeps executing. *)
let test_corrupted_wire_counted_and_masked () =
  let sys, _ = Helpers.make_system ~seed:41L () in
  let engine = Runtime.engine sys in
  Engine.fault_corrupt engine ~src:0 ~dst:1 ~p:1.0
    ~until:(Base_sim.Sim_time.of_us max_int);
  Alcotest.(check string) "write completes despite corrupted link" "ok"
    (Helpers.set sys ~client:0 0 "v1");
  Alcotest.(check string) "read sees the write" "v1"
    (Helpers.value_part (Helpers.get sys ~client:0 0));
  let corrupted = (Engine.total_counters engine).Engine.corrupted_msgs in
  Alcotest.(check bool) "corruption actually happened" true (corrupted > 0);
  let st = Replica.stats (Runtime.replica sys 1).Runtime.replica in
  (* Only the 0->1 link corrupts, so replica 1 absorbs every corrupted
     delivery; each one lands in exactly one reject bucket. *)
  Alcotest.(check int) "every corrupted delivery rejected (MAC or decode)"
    corrupted
    (st.Replica.rejected_macs + st.Replica.rejected_decode);
  Alcotest.(check bool) "MAC rejections observed" true (st.Replica.rejected_macs > 0);
  Alcotest.(check int) "report agrees" st.Replica.rejected_macs
    (Helpers.reported_stat sys 1 "rejected_macs")

(* Envelope-level single-byte tamper, against live runtime keychains: a
   legitimate reply re-adopted from its own wire verifies; with any one
   byte flipped it must not.  (The exhaustive all-receivers loop lives in
   the bft-wire suite; this one pins the unicast/client path.) *)
let test_unicast_tamper_rejected () =
  let body =
    M.Reply { view = 0; timestamp = 7L; client = 6; replica = 1; result = "r" }
  in
  let env = M.seal_for chains.(1) ~sender:1 ~receiver:6 body in
  Alcotest.(check bool) "genuine reply verifies" true
    (M.verify chains.(6) ~receiver:6 env);
  for i = 0 to String.length env.M.wire - 1 do
    let tampered =
      String.mapi
        (fun j c -> if j = i then Char.chr (Char.code c lxor 0x80) else c)
        env.M.wire
    in
    match M.of_wire ~sender:1 ~macs:env.M.macs tampered with
    | Error _ -> ()
    | Ok adopted ->
      Alcotest.(check bool)
        (Printf.sprintf "byte %d flipped: reply rejected" i)
        false
        (M.verify chains.(6) ~receiver:6 adopted)
  done

let suite =
  [
    pairwise_keys;
    authenticator_equivalence;
    refresh_voids_tags;
    shard_suffix_mac_equivalence;
    Alcotest.test_case "corrupted wire: counted and masked end-to-end" `Quick
      test_corrupted_wire_counted_and_masked;
    Alcotest.test_case "unicast reply: any byte flip rejected" `Quick
      test_unicast_tamper_rejected;
  ]
