(* Differential digest suite: the content-addressed envelope's memoised
   digest must equal a from-scratch SHA-256 of the canonical encoding, for
   every message kind and for fuzzed bodies, on both the seal path and the
   wire-adoption path.  This is the property that lets MACs cover a 32-byte
   digest instead of the whole body: if the memo ever diverged from the
   recomputation, a receiver would accept (or reject) different bytes than
   the sender authenticated. *)

module M = Base_bft.Message
module Auth = Base_crypto.Auth
module Digest = Base_crypto.Digest_t
module Sha256 = Base_crypto.Sha256
module Gen = QCheck2.Gen

let chains = Auth.create ~seed:11L ~n_principals:8

(* The from-scratch oracle: hash the envelope's wire bytes with the raw
   SHA-256 primitive, bypassing the memo entirely. *)
let oracle_digest env = Digest.of_raw (Sha256.digest env.M.wire)

let check_envelope what env =
  let memoised = M.envelope_digest env in
  if not (Digest.equal memoised (oracle_digest env)) then
    QCheck2.Test.fail_reportf "%s: memoised digest diverges from SHA-256(%S)" what
      env.M.wire;
  (* The memo must be sticky: a second call returns the very same value
     (physical equality — computed at most once per envelope). *)
  if not (M.envelope_digest env == memoised) then
    QCheck2.Test.fail_reportf "%s: envelope_digest recomputed instead of memoised" what;
  true

(* Seal path: for fuzzed bodies of every kind, wire is the canonical
   encoding and the memoised digest matches the oracle. *)
let seal_digest_matches =
  Helpers.qtest "seal: memoised digest = from-scratch SHA-256" Test_bft_wire.gen_body
    (fun body ->
      let env = M.seal chains.(2) ~sender:2 ~n_receivers:8 body in
      if not (String.equal env.M.wire (M.encode_body body)) then
        QCheck2.Test.fail_reportf "wire is not the canonical encoding of %s"
          (M.label body);
      check_envelope (M.label body) env)

(* Wire path: of_wire adopts the received bytes, so the digest is of what
   arrived — identical to the sender's when nothing was tampered with. *)
let of_wire_digest_matches =
  Helpers.qtest "of_wire: adopted bytes digest = sender digest" Test_bft_wire.gen_body
    (fun body ->
      let env = M.seal_for chains.(1) ~sender:1 ~receiver:5 body in
      match M.of_wire ~sender:1 ~macs:env.M.macs env.M.wire with
      | Error e ->
        QCheck2.Test.fail_reportf "own wire bytes of %s failed to decode: %s"
          (M.label body) e
      | Ok adopted ->
        ignore (check_envelope (M.label body) adopted);
        Digest.equal (M.envelope_digest adopted) (M.envelope_digest env))

(* Exhaustive kind coverage, independent of generator weights: one fixed
   sample per constructor (shared with the decode-totality suite). *)
let test_every_kind () =
  List.iter
    (fun body ->
      let env = M.seal chains.(0) ~sender:0 ~n_receivers:8 body in
      ignore (check_envelope (M.kind_label body) env);
      match M.of_wire ~sender:0 ~macs:env.M.macs env.M.wire with
      | Error e -> Alcotest.failf "%s: of_wire failed: %s" (M.kind_label body) e
      | Ok adopted ->
        Alcotest.(check bool)
          (M.kind_label body ^ ": wire-path digest equals seal-path digest")
          true
          (Digest.equal (M.envelope_digest adopted) (M.envelope_digest env)))
    Test_fuzz_decode.sample_bodies

(* The digest the protocol orders by (the pre-prepare batch digest) is one
   SHA-256 pass over u32 k, the k request digests and the length-prefixed
   nondet proposal, and a request's digest is its REQUEST envelope's. *)
let batch_preimage requests ~nondet =
  let xdr enc v = Base_codec.Xdr.encode enc v in
  xdr Base_codec.Xdr.u32 (List.length requests)
  ^ String.concat ""
      (List.map
         (fun r ->
           Digest.raw (oracle_digest (M.seal chains.(0) ~sender:0 ~n_receivers:4 (M.Request r))))
         requests)
  ^ xdr Base_codec.Xdr.opaque nondet

let batch_digest_injective =
  Helpers.qtest "batch_digest: nondet/batch boundary is unambiguous"
    (Gen.pair (Gen.list_size (Gen.int_bound 4) Test_bft_wire.gen_request) Gen.string)
    (fun (requests, nondet) ->
      let pre = batch_preimage requests ~nondet in
      (* Moving bytes across the boundary must change the preimage: the
         batch with nondet "x" ^ suffix never collides with the same batch
         with nondet "x" and the suffix elsewhere, nor does a request's
         digest pass for the head of the nondet proposal. *)
      Digest.equal (M.batch_digest requests ~nondet) (Digest.of_string pre)
      && (not (String.equal pre (batch_preimage requests ~nondet:(nondet ^ "\x00"))))
      &&
      match List.rev requests with
      | [] -> true
      | last :: rest ->
        not
          (String.equal pre
             (batch_preimage (List.rev rest)
                ~nondet:(Digest.raw (M.request_digest last) ^ nondet))))

(* A re-seal is the seal of the same body under the keys held now: same
   wire bytes (shared, not copied), same digest, same MACs as a fresh seal,
   before and after a key refresh voids the first authenticator. *)
let test_reseal_equals_seal () =
  let chains = Auth.create ~seed:17L ~n_principals:8 in
  let body =
    M.Pre_prepare
      {
        view = 0;
        seq = 4;
        digest = Digest.of_string "batch";
        requests =
          [ { M.client = 6; timestamp = 2L; operation = String.make 8192 'w'; read_only = false } ];
        nondet = "n";
      }
  in
  let sealed = M.seal chains.(0) ~shard:2 ~sender:0 ~n_receivers:4 body in
  let check_reseal what =
    let fresh = M.seal chains.(0) ~shard:2 ~sender:0 ~n_receivers:4 body in
    let resealed = M.reseal chains.(0) ~n_receivers:4 sealed in
    Alcotest.(check bool) (what ^ ": wire shared") true (resealed.M.wire == sealed.M.wire);
    Alcotest.(check int) (what ^ ": size") fresh.M.size resealed.M.size;
    Alcotest.(check (array string)) (what ^ ": MACs of a fresh seal") fresh.M.macs resealed.M.macs;
    Alcotest.(check bool) (what ^ ": verifies") true (M.verify chains.(3) ~receiver:3 resealed)
  in
  check_reseal "same keys";
  Auth.refresh_keys chains 3;
  Alcotest.(check bool) "old authenticator void" false (M.verify chains.(3) ~receiver:3 sealed);
  check_reseal "refreshed keys"

(* Leaf digests hash the XDR encoding of (u32 index, opaque data) in three
   parts.  The oracle builds that encoding in one string and hashes it;
   the lengths cover every pad width (0-3 bytes). *)
let xdr_leaf i data =
  let n = String.length data in
  let b = Buffer.create (n + 12) in
  Buffer.add_int32_be b (Int32.of_int i);
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b data;
  Buffer.add_string b (String.make ((4 - (n mod 4)) mod 4) '\000');
  Buffer.contents b

let test_leaf_digest () =
  List.iter
    (fun i ->
      List.iter
        (fun len ->
          let data = String.init len (fun k -> Char.chr (((k * 31) + i) land 0xff)) in
          Alcotest.(check string)
            (Printf.sprintf "leaf %d, %d bytes" i len)
            (Digest.to_hex (Digest.of_string (xdr_leaf i data)))
            (Digest.to_hex (Base_core.Service.object_digest i data)))
        (List.init 17 Fun.id @ [ 8191; 8192 ]))
    [ 0; 1; 0x7fffffff ]

let suite =
  [
    seal_digest_matches;
    of_wire_digest_matches;
    Alcotest.test_case "every message kind: memo = oracle, both paths" `Quick
      test_every_kind;
    batch_digest_injective;
    Alcotest.test_case "reseal = seal under current keys" `Quick test_reseal_equals_seal;
    Alcotest.test_case "leaf digest = digest of XDR (u32 i, opaque data)" `Quick
      test_leaf_digest;
  ]
