(* Batch-MAC equivalence and tamper suite.

   The hot path seals a broadcast by hashing the body once and MACing the
   32-byte digest per receiver over precomputed HMAC midstates.  This suite
   pins the two halves of that optimisation:

   - {e equivalence}: the batched primitives produce bit-identical tags to
     the naive ones ([mac_digest_for] = [mac_for], [mac_prepared] = [mac]),
     so the optimisation cannot weaken or change what is authenticated;
   - {e tamper}: because MACs bind the wire digest, corrupting any single
     in-flight byte voids verification at the receiver and is counted in
     [bft.reject.mac] / [bft.reject.decode] — exercised end-to-end through
     the runtime's corruption model, not just at the envelope level. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Metrics = Base_obs.Metrics
module Auth = Base_crypto.Auth
module Hmac = Base_crypto.Hmac
module Sha256 = Base_crypto.Sha256
module Gen = QCheck2.Gen

let chains = Auth.create ~seed:31L ~n_principals:8

(* [mac_digest_for] must agree with the naive per-message [mac_for] on
   every (sender, receiver) pair — including 32-byte binary strings, the
   shape the hot path feeds it. *)
let mac_digest_equivalence =
  Helpers.qtest "mac_digest_for = mac_for, every pair"
    (Gen.pair Gen.string (Gen.pair (Gen.int_bound 7) (Gen.int_bound 7)))
    (fun (msg, (sender, receiver)) ->
      let digest = Sha256.digest msg in
      String.equal
        (Auth.mac_digest_for chains.(sender) ~receiver digest)
        (Auth.mac_for chains.(sender) ~receiver digest)
      && Auth.check_digest chains.(receiver) ~sender digest
           ~mac:(Auth.mac_digest_for chains.(sender) ~receiver digest))

let authenticator_equivalence =
  Helpers.qtest "digest_authenticator = per-receiver mac_for vector" Gen.string (fun msg ->
      let digest = Sha256.digest msg in
      let batched = Auth.digest_authenticator chains.(3) ~n:8 digest in
      let naive = Array.init 8 (fun receiver -> Auth.mac_for chains.(3) ~receiver digest) in
      batched = naive)

(* The midstate trick one level down: preparing a key (ipad/opad compressed
   once) yields the same tags as the two-pass HMAC, for arbitrary keys —
   shorter, block-sized and longer-than-block (the hash-the-key path). *)
let prepared_hmac_equivalence =
  Helpers.qtest "Hmac.mac_prepared = Hmac.mac"
    (Gen.pair (Gen.string_size (Gen.int_bound 200)) Gen.string)
    (fun (key, msg) ->
      let prep = Hmac.prepare ~key in
      String.equal (Hmac.mac_prepared prep msg) (Hmac.mac ~key msg)
      && Hmac.verify_prepared prep msg ~tag:(Hmac.mac ~key msg))

(* Shard k > 0 binds its envelopes by MACing the digest with the shard byte
   appended.  That byte now reaches the HMAC as a suffix instead of through
   [raw ^ byte]; the tags must be the ones the concatenation produced, on
   the broadcast and the unicast path, including shards past 255, whose
   byte wraps (shard 256 appends '\000'). *)
let shard_suffix_mac_equivalence =
  Helpers.qtest "shard-k MAC = mac_for over raw ^ byte"
    (Gen.pair Test_bft_wire.gen_body (Gen.pair (Gen.int_range 1 600) (Gen.int_bound 7)))
    (fun (body, (shard, receiver)) ->
      let old_way env =
        let raw = Base_crypto.Digest_t.raw (M.envelope_digest env) in
        Auth.mac_for chains.(2) ~receiver (raw ^ String.make 1 (Char.chr (shard land 0xff)))
      in
      let env = M.seal chains.(2) ~shard ~sender:2 ~n_receivers:8 body in
      let uni = M.seal_for chains.(2) ~shard ~sender:2 ~receiver body in
      String.equal env.M.macs.(receiver) (old_way env)
      && String.equal uni.M.macs.(0) (old_way uni)
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
  Alcotest.(check int) "bft.reject.mac counter agrees" st.Replica.rejected_macs
    (Metrics.counter_value (Metrics.counter (Runtime.metrics sys) "bft.reject.mac"))

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
    mac_digest_equivalence;
    authenticator_equivalence;
    prepared_hmac_equivalence;
    shard_suffix_mac_equivalence;
    Alcotest.test_case "corrupted wire: counted and masked end-to-end" `Quick
      test_corrupted_wire_counted_and_masked;
    Alcotest.test_case "unicast reply: any byte flip rejected" `Quick
      test_unicast_tamper_rejected;
  ]
