(* Fault-plan DSL tests: grammar corners, error reporting, and a fuzzed
   print/parse round-trip over randomly generated plans. *)

module Faultplan = Base_sim.Faultplan
module Gen = QCheck2.Gen

let parse_exn text =
  match Faultplan.parse text with Ok p -> p | Error e -> Alcotest.fail e

let parse_err text =
  match Faultplan.parse text with
  | Ok _ -> Alcotest.fail ("expected a parse error for " ^ String.escaped text)
  | Error e -> e

(* --- grammar ---------------------------------------------------------------- *)

let test_grammar () =
  let plan =
    parse_exn
      "# full grammar tour\n\
       at 500ms crash 0\n\
       at 900ms reboot 0   # trailing comment\n\
       at 700ms promote 4\n\
       at 750ms crash-standby 4\n\
       at 1s partition 0 1 / 2 3\n\
       at 2s heal\n\
       \n\
       at 1s delay 1->2 extra=300us for 500ms\n\
       at 1s drop *->2 p=0.3 for 500ms\n\
       at 1s corrupt 1->* p=0.25 for 200ms\n\
       at 1s behavior 0 equivocate\n\
       at 1s behavior 1 mute shard=1\n\
       at 1s attack-preprepare 0 mute=0.5 delay=2ms for 1s\n\
       at 1s attack-preprepare 0 mute=0.5 delay=2ms shard=2 for 1s\n"
  in
  Alcotest.(check int) "events parsed" 13 (List.length plan);
  (match List.nth plan 10 with
  | { Faultplan.action = Faultplan.Set_behavior { node = 1; behavior = Faultplan.B_mute; shard = Some 1 }; _ } ->
    ()
  | _ -> Alcotest.fail "shard-qualified behavior mis-parsed");
  (match List.nth plan 12 with
  | { Faultplan.action = Faultplan.Attack_pre_prepare { shard = Some 2; _ }; _ } -> ()
  | _ -> Alcotest.fail "shard-qualified attack-preprepare mis-parsed");
  (match List.nth plan 0 with
  | { Faultplan.at_us = 500_000; action = Faultplan.Crash 0 } -> ()
  | _ -> Alcotest.fail "first event should be crash 0 at 500ms");
  (match List.nth plan 2 with
  | { Faultplan.at_us = 700_000; action = Faultplan.Promote 4 } -> ()
  | _ -> Alcotest.fail "third event should be promote 4 at 700ms");
  (match List.nth plan 3 with
  | { Faultplan.at_us = 750_000; action = Faultplan.Crash_standby 4 } -> ()
  | _ -> Alcotest.fail "fourth event should be crash-standby 4 at 750ms");
  match List.nth plan 4 with
  | { Faultplan.action = Faultplan.Partition ([ 0; 1 ], [ 2; 3 ]); _ } -> ()
  | _ -> Alcotest.fail "partition groups mis-parsed"

let test_errors () =
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (text, expect) ->
      let e = parse_err text in
      Alcotest.(check bool)
        (Printf.sprintf "%S error mentions %S (got %S)" text expect e)
        true (contains e expect))
    [
      ("at 5 crash 0", "unknown time unit");
      ("at 5ms", "no action");
      ("crash 0", "expected 'at TIME ACTION'");
      ("at 5ms crash x", "node id");
      ("at 5ms promote x", "node id");
      ("at 5ms crash-standby -3", "node id");
      ("at 5ms drop 1->2 p=1.5 for 1ms", "probability");
      ("at 5ms delay 12 extra=1us for 1ms", "SRC->DST");
      ("at 5ms partition 0 1 2", "'/'");
      ("at 5ms behavior 0 sleepy", "unknown behavior");
      ("at 5ms frobnicate 3", "unknown action");
      ("ok\nat 1ms crash 0", "line 1");
      ("at 1ms crash 0\nbad", "line 2");
    ]

(* --- fuzzed round-trip -------------------------------------------------------- *)

(* Probabilities from a short-decimal set so the %g rendering is exact. *)
let gen_prob = Gen.map (fun k -> float_of_int k /. 20.0) (Gen.int_bound 20)

let gen_endpoint = Gen.oneof [ Gen.return (-1); Gen.int_bound 6 ]

let gen_duration = Gen.map (fun d -> d + 1) (Gen.int_bound 5_000_000)

let gen_behavior =
  Gen.oneofl [ Faultplan.B_honest; Faultplan.B_mute; Faultplan.B_lie; Faultplan.B_equivocate ]

let gen_action =
  Gen.oneof
    [
      Gen.map (fun n -> Faultplan.Crash n) (Gen.int_bound 6);
      Gen.map (fun n -> Faultplan.Reboot n) (Gen.int_bound 6);
      Gen.map (fun n -> Faultplan.Promote n) (Gen.int_bound 6);
      Gen.map (fun n -> Faultplan.Crash_standby n) (Gen.int_bound 6);
      Gen.map2
        (fun a b -> Faultplan.Partition (a, b))
        (Gen.list_size (Gen.int_range 1 3) (Gen.int_bound 6))
        (Gen.list_size (Gen.int_range 1 3) (Gen.int_bound 6));
      Gen.return Faultplan.Heal;
      Gen.map3
        (fun (src, dst) extra_us for_us -> Faultplan.Delay_link { src; dst; extra_us; for_us })
        (Gen.pair gen_endpoint gen_endpoint) gen_duration gen_duration;
      Gen.map3
        (fun (src, dst) p for_us -> Faultplan.Drop_link { src; dst; p; for_us })
        (Gen.pair gen_endpoint gen_endpoint) gen_prob gen_duration;
      Gen.map3
        (fun (src, dst) p for_us -> Faultplan.Corrupt_link { src; dst; p; for_us })
        (Gen.pair gen_endpoint gen_endpoint) gen_prob gen_duration;
      Gen.map3
        (fun node behavior shard -> Faultplan.Set_behavior { node; behavior; shard })
        (Gen.int_bound 6) gen_behavior
        (Gen.opt (Gen.int_bound 3));
      Gen.map3
        (fun (node, mute_p) (delay_us, shard) for_us ->
          Faultplan.Attack_pre_prepare { node; mute_p; delay_us; for_us; shard })
        (Gen.pair (Gen.int_bound 6) gen_prob)
        (Gen.pair gen_duration (Gen.opt (Gen.int_bound 3)))
        gen_duration;
    ]

let gen_plan =
  Gen.list_size (Gen.int_bound 12)
    (Gen.map2 (fun at_us action -> { Faultplan.at_us; action }) gen_duration gen_action)

(* to_string is canonical, so the round-trip law compares renderings: one
   parse . to_string cycle must be a fixpoint. *)
let roundtrip =
  Helpers.qtest ~count:500 "print/parse round-trip" gen_plan (fun plan ->
      let text = Faultplan.to_string plan in
      match Faultplan.parse text with
      | Error e -> QCheck2.Test.fail_reportf "canonical text rejected: %s\n%s" e text
      | Ok plan' ->
        let text' = Faultplan.to_string plan' in
        if String.equal text text' then true
        else QCheck2.Test.fail_reportf "not a fixpoint:\n%s\nvs\n%s" text text')

let suite =
  [
    Alcotest.test_case "grammar tour" `Quick test_grammar;
    Alcotest.test_case "error reporting" `Quick test_errors;
    roundtrip;
  ]
