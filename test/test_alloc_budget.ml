(* Per-call allocation budgets on the authenticator hot path.

   Every message the protocol seals or checks pays these calls once per
   receiver, so their garbage multiplies into the per-request allocation
   the benchmark ledger reports.  The budgets pin what the allocation-free
   SHA-256/HMAC reached, measured exactly with [Gc.minor_words] (everything
   here is small enough to be born in the minor heap):

   - [Auth.check_digest]: the key cache's [Some], nothing else;
   - [Auth.mac_digest_for]: that plus the 32-byte tag;
   - [Digest_t.of_string]: the 32-byte digest, nothing else, whatever the
     input length;
   - [Sha256.update_bytes]: nothing — the compression kernel is a
     [noalloc] external taking the position untagged.

   A change that puts a context, a padding buffer, a boxed counter or a
   boxed kernel argument back on these paths fails here, not only as a
   drift in the ledger. *)

module Auth = Base_crypto.Auth
module Digest = Base_crypto.Digest_t
module Sha256 = Base_crypto.Sha256
module M = Base_bft.Message

let calls = 1_000

(* Bytes allocated per call of [f], after one warm-up call (which fills the
   key cache).  The only other allocation in the window is the boxed float
   of the second [Gc.minor_words] reading, shared by all [calls]. *)
let bytes_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  let after = Gc.minor_words () in
  int_of_float ((after -. before) *. float_of_int (Sys.word_size / 8) /. float_of_int calls)

let within_budget what ~budget f =
  let used = bytes_per_call f in
  if used > budget then Alcotest.failf "%s allocates %d B per call, budget %d B" what used budget

let chains = Auth.create ~seed:5L ~n_principals:8

let digest = Sys.opaque_identity (Digest.raw (Digest.of_string "authenticated body"))

let test_check_digest () =
  let mac = Auth.mac_digest_for chains.(2) ~receiver:5 digest in
  Alcotest.(check bool) "genuine MAC accepted" true
    (Auth.check_digest chains.(5) ~sender:2 digest ~mac);
  within_budget "Auth.check_digest" ~budget:16 (fun () ->
      Auth.check_digest chains.(5) ~sender:2 digest ~mac);
  let suffix = Some '\003' in
  let mac = Auth.mac_digest_for chains.(2) ~receiver:5 ?suffix digest in
  Alcotest.(check bool) "genuine suffixed MAC accepted" true
    (Auth.check_digest chains.(5) ~sender:2 ?suffix digest ~mac);
  within_budget "Auth.check_digest ~suffix" ~budget:16 (fun () ->
      Auth.check_digest chains.(5) ~sender:2 ?suffix digest ~mac)

let test_mac_digest_for () =
  within_budget "Auth.mac_digest_for" ~budget:64 (fun () ->
      Auth.mac_digest_for chains.(2) ~receiver:5 digest)

let test_digest_of_string () =
  let input = Sys.opaque_identity (String.make 64 'b') in
  within_budget "Digest_t.of_string (64 B)" ~budget:48 (fun () -> Digest.of_string input)

(* 8 KB is 128 blocks: the whole-block run goes to the kernel in one call. *)
let test_large_inputs () =
  let input = Sys.opaque_identity (String.make 8192 'c') in
  within_budget "Digest_t.of_string (8 KB)" ~budget:48 (fun () -> Digest.of_string input);
  let ctx = Sha256.init () and data = Sys.opaque_identity (Bytes.make 8192 'd') in
  within_budget "Sha256.update_bytes (8 KB)" ~budget:0 (fun () ->
      Sha256.update_bytes ctx data ~pos:0 ~len:8192)

(* Envelope verification adds nothing on top of the MAC check once the
   digest is memoised: the shard byte comes from a preallocated option. *)
let test_envelope_verify () =
  List.iter
    (fun shard ->
      let env =
        M.seal chains.(1) ~shard ~sender:1 ~n_receivers:4
          (M.Commit { view = 0; seq = 9; digest = Digest.of_string "batch"; replica = 1 })
      in
      Alcotest.(check bool) "genuine envelope verifies" true (M.verify chains.(3) ~receiver:3 env);
      within_budget (Printf.sprintf "Message.verify (shard %d)" shard) ~budget:16 (fun () ->
          M.verify chains.(3) ~receiver:3 env))
    [ 0; 2 ]

let suite =
  [
    Alcotest.test_case "Auth.check_digest: <= 16 B per call" `Quick test_check_digest;
    Alcotest.test_case "Auth.mac_digest_for: <= 64 B per call" `Quick test_mac_digest_for;
    Alcotest.test_case "Digest_t.of_string 64 B: <= 48 B per call" `Quick test_digest_of_string;
    Alcotest.test_case "Message.verify: <= 16 B per call" `Quick test_envelope_verify;
    Alcotest.test_case "8 KB: of_string <= 48 B, update_bytes 0 B per call" `Quick
      test_large_inputs;
  ]
