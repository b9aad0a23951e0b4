(* Wire-format tests of the BFT protocol messages: encode/decode round-trips
   (property-based), MAC envelope behaviour, and rejection of malformed
   input. *)

module M = Base_bft.Message
module Types = Base_bft.Types
module Auth = Base_crypto.Auth
module Digest = Base_crypto.Digest_t
module Gen = QCheck2.Gen

let gen_digest = Gen.map (fun s -> Digest.of_string s) Gen.string

let gen_request =
  Gen.map
    (fun ((client, ts), (op, ro)) ->
      { M.client; timestamp = Int64.of_int ts; operation = op; read_only = ro })
    (Gen.pair (Gen.pair (Gen.int_range (-1) 50) Gen.nat) (Gen.pair Gen.string Gen.bool))

let gen_pre_prepare =
  Gen.map3
    (fun (view, seq) (digest, requests) nondet ->
      { M.view; seq; digest; requests; nondet })
    (Gen.pair (Gen.int_bound 100) (Gen.int_bound 10_000))
    (Gen.pair gen_digest (Gen.list_size (Gen.int_bound 5) gen_request))
    Gen.string

let gen_body =
  Gen.oneof
    [
      Gen.map (fun r -> M.Request r) gen_request;
      Gen.map (fun p -> M.Pre_prepare p) gen_pre_prepare;
      Gen.map3
        (fun view seq (digest, replica) -> M.Prepare { view; seq; digest; replica })
        (Gen.int_bound 50) (Gen.int_bound 1000)
        (Gen.pair gen_digest (Gen.int_bound 6));
      Gen.map3
        (fun view seq (digest, replica) -> M.Commit { view; seq; digest; replica })
        (Gen.int_bound 50) (Gen.int_bound 1000)
        (Gen.pair gen_digest (Gen.int_bound 6));
      Gen.map3
        (fun view ts (result, (client, replica)) ->
          M.Reply { view; timestamp = Int64.of_int ts; client; replica; result })
        (Gen.int_bound 50) Gen.nat
        (Gen.pair Gen.string (Gen.pair (Gen.int_bound 20) (Gen.int_bound 6)));
      Gen.map3
        (fun seq digest replica -> M.Checkpoint { seq; digest; replica })
        (Gen.int_bound 1000) gen_digest (Gen.int_bound 6);
      Gen.map3
        (fun (new_view, last_stable) (stable_digest, prepared) replica ->
          M.View_change { new_view; last_stable; stable_digest; prepared; replica })
        (Gen.pair (Gen.int_bound 50) (Gen.int_bound 1000))
        (Gen.pair gen_digest (Gen.list_size (Gen.int_bound 3) gen_pre_prepare))
        (Gen.int_bound 6);
      Gen.map3
        (fun nv_view nv_view_changes nv_pre_prepares ->
          M.New_view { nv_view; nv_view_changes; nv_pre_prepares })
        (Gen.int_bound 50)
        (Gen.list_size (Gen.int_bound 4) (Gen.pair (Gen.int_bound 6) (Gen.int_bound 1000)))
        (Gen.list_size (Gen.int_bound 3) gen_pre_prepare);
      Gen.map3
        (fun st_view st_last_exec (st_h, st_replica) ->
          M.Status { st_view; st_last_exec; st_h; st_replica })
        (Gen.int_bound 50) (Gen.int_bound 1000)
        (Gen.pair (Gen.int_bound 1000) (Gen.int_bound 6));
    ]

let body_roundtrip =
  Helpers.qtest "message encode/decode round-trip" gen_body (fun body ->
      M.decode_body (M.encode_body body) = Ok body)

(* Golden encodings: one fixed value of each body, with the hex its
   [encode_body] produced before PREPARE and COMMIT shared one vote codec
   and a VIEW-CHANGE's prepared set became plain PRE-PREPAREs.  The
   round-trip property above holds for any self-consistent format; these
   pin the format itself. *)
let golden_bodies =
  let d = Digest.of_string in
  let req = { M.client = 7; timestamp = 42L; operation = "write x"; read_only = false } in
  let ro = { M.client = 9; timestamp = 3L; operation = "read"; read_only = true } in
  let pp = { M.view = 1; seq = 5; digest = d "batch"; requests = [ req; ro ]; nondet = "t=9" } in
  let pp4 = { M.view = 0; seq = 4; digest = d "b4"; requests = [ req ]; nondet = "n4" } in
  [
    ("request", M.Request req, "0000000000000008000000000000002a00000007777269746520780000000000");
    ( "pre-prepare",
      M.Pre_prepare pp,
      "000000010000000100000005000000204bb24efc9641afc5ded1ca77eabb6e2fcf062d21"
      ^ "12ccd61bd8bd6acd89180bae0000000200000008000000000000002a0000000777726974"
      ^ "65207800000000000000000a000000000000000300000004726561640000000100000003"
      ^ "743d3900" );
    ( "prepare",
      M.Prepare { view = 1; seq = 5; digest = d "batch"; replica = 2 },
      "000000020000000100000005000000204bb24efc9641afc5ded1ca77eabb6e2fcf062d21"
      ^ "12ccd61bd8bd6acd89180bae00000003" );
    ( "commit",
      M.Commit { view = 1; seq = 5; digest = d "batch"; replica = 3 },
      "000000030000000100000005000000204bb24efc9641afc5ded1ca77eabb6e2fcf062d21"
      ^ "12ccd61bd8bd6acd89180bae00000004" );
    ( "reply",
      M.Reply { view = 1; timestamp = 42L; client = 7; replica = 0; result = "ok" },
      "0000000400000001000000000000002a0000000800000001000000026f6b0000" );
    ( "checkpoint",
      M.Checkpoint { seq = 128; digest = d "cp"; replica = 1 },
      "000000050000008000000020e44b4bd707c540bca8615b21f850fb41e02029701df241d1"
      ^ "79c1a5f3acbf5bf100000002" );
    ( "view-change",
      M.View_change
        {
          new_view = 2;
          last_stable = 0;
          stable_digest = d "s0";
          prepared = [ pp4; pp ];
          replica = 3;
        },
      "00000006000000020000000000000020ec18eac8d758b1eba52d3c10d39adc6dd9806472"
      ^ "cb4ae069635d383d9086a51300000002000000000000000400000020486bacc5c2d8a71a"
      ^ "73d51bf8e522deaa264ec2628dca2955da1e9b8e00f21943000000010000000800000000"
      ^ "0000002a00000007777269746520780000000000000000026e3400000000000100000005"
      ^ "000000204bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae"
      ^ "0000000200000008000000000000002a000000077772697465207800000000000000000a"
      ^ "000000000000000300000004726561640000000100000003743d390000000004" );
    ( "new-view",
      M.New_view
        {
          nv_view = 2;
          nv_view_changes = [ (0, 0); (1, 0); (3, 0) ];
          nv_pre_prepares = [ { pp with view = 2; requests = [] } ];
        },
      "000000070000000200000003000000010000000000000002000000000000000400000000"
      ^ "000000010000000200000005000000204bb24efc9641afc5ded1ca77eabb6e2fcf062d21"
      ^ "12ccd61bd8bd6acd89180bae0000000000000003743d3900" );
    ( "status",
      M.Status { st_view = 2; st_last_exec = 5; st_h = 0; st_replica = 1 },
      "0000000800000002000000050000000000000002" );
  ]

let test_golden_encodings () =
  List.iter
    (fun (name, body, expected) ->
      let wire = M.encode_body body in
      Alcotest.(check string) (name ^ " encoding") expected (Base_util.Hex.encode wire);
      Alcotest.(check bool) (name ^ " decodes back") true (M.decode_body wire = Ok body))
    golden_bodies

let test_decode_garbage () =
  List.iter
    (fun s ->
      match M.decode_body s with
      | Ok _ -> Alcotest.failf "garbage %S decoded" s
      | Error _ -> ())
    [ ""; "\x00"; "\x00\x00\x00\x63"; String.make 40 '\xff' ]

let test_envelope_macs () =
  let chains = Auth.create ~seed:2L ~n_principals:6 in
  let body = M.Prepare { view = 1; seq = 2; digest = Digest.of_string "d"; replica = 3 } in
  let env = M.seal chains.(3) ~sender:3 ~n_receivers:6 body in
  for receiver = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "receiver %d verifies" receiver)
      true
      (M.verify chains.(receiver) ~receiver env)
  done;
  (* MACs bind the wire bytes: re-adopting the envelope's encoding through
     the wire path verifies, but flipping any single byte of it voids every
     receiver's MAC (decode may still succeed — e.g. a pad byte — so this
     is strictly stronger than body inequality). *)
  (match M.of_wire ~sender:3 ~macs:env.M.macs env.M.wire with
  | Error e -> Alcotest.failf "own wire bytes failed to decode: %s" e
  | Ok readopted ->
    for receiver = 0 to 5 do
      Alcotest.(check bool)
        (Printf.sprintf "receiver %d verifies re-adopted wire" receiver)
        true
        (M.verify chains.(receiver) ~receiver readopted)
    done);
  for i = 0 to String.length env.M.wire - 1 do
    let tampered_wire =
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) env.M.wire
    in
    match M.of_wire ~sender:3 ~macs:env.M.macs tampered_wire with
    | Error _ -> ()  (* decode already rejected the corruption: fine *)
    | Ok tampered ->
      for receiver = 0 to 5 do
        Alcotest.(check bool)
          (Printf.sprintf "byte %d tampered: receiver %d rejects" i receiver)
          false
          (M.verify chains.(receiver) ~receiver tampered)
      done
  done

let test_request_digest_stability () =
  let r = { M.client = 7; timestamp = 9L; operation = "op"; read_only = false } in
  Alcotest.(check bool) "digest deterministic" true
    (Digest.equal (M.request_digest r) (M.request_digest r));
  let r' = { r with M.operation = "op2" } in
  Alcotest.(check bool) "digest separates operations" false
    (Digest.equal (M.request_digest r) (M.request_digest r'))

let suite =
  [
    body_roundtrip;
    Alcotest.test_case "golden encodings" `Quick test_golden_encodings;
    Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
    Alcotest.test_case "envelope MACs" `Quick test_envelope_macs;
    Alcotest.test_case "request digest" `Quick test_request_digest_stability;
  ]
