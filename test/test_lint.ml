(* basecheck fixtures: one bad unit per rule, checked under a
   repo-relative pose name that activates every rule scope, plus clean
   units that must produce no findings.  The fixtures in test/lint/ are
   compiled as the lint_fixtures library, so the lint reads their .cmt
   files as it reads the tree's. *)

module C = Basecheck_lib.Checks
module Typed = Basecheck_lib.Typed_checks
module Taint = Basecheck_lib.Typed_taint

(* The build context the test runs in: relative load-path entries recorded
   in the fixtures' .cmt files are relative to it. *)
let cmt_root = Filename.concat (Filename.dirname Sys.executable_name) ".."

let fixture_cmt name =
  Filename.concat cmt_root
    ("test/lint/.lint_fixtures.objs/byte/lint_fixtures__" ^ String.capitalize_ascii name
   ^ ".cmt")

let findings name rel =
  match Typed.check_cmt ~cmt_root ~rel (fixture_cmt name) with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok fs -> fs

let rule_ids fs = List.sort_uniq String.compare (List.map (fun f -> C.rule_name f.C.rule) fs)

let check_fixture name expected_rule expected_count =
  let fs = findings name ("lib/bft/" ^ name ^ ".ml") in
  Alcotest.(check (list string))
    (name ^ " flags only " ^ expected_rule)
    [ expected_rule ] (rule_ids fs);
  Alcotest.(check int) (name ^ " finding count") expected_count (List.length fs)

let test_bad_fixtures () =
  check_fixture "d1_bad" "D1" 4;
  check_fixture "d2_bad" "D2" 3;
  check_fixture "d3_bad" "D3" 2;
  check_fixture "d4_bad" "D4" 3;
  check_fixture "e1_bad" "E1" 3;
  (* Two direct paths, one through a module alias, one through a local
     open. *)
  check_fixture "a1_bad" "A1" 4

let test_clean_fixture () =
  Alcotest.(check (list string))
    "clean produces no findings" []
    (rule_ids (findings "clean" "lib/bft/clean.ml"))

let test_rule_scoping () =
  (* The same E1 fixture outside a Byzantine-facing path is not flagged. *)
  Alcotest.(check (list string))
    "E1 limited to Byzantine-facing paths" []
    (rule_ids (findings "e1_bad" "lib/util/e1_bad.ml"));
  (* D4 only applies to library code: executables may exit. *)
  Alcotest.(check (list string)) "D4 limited to lib/" [] (rule_ids (findings "d4_bad" "bin/d4_bad.ml"));
  (* A1: the codec builds its own encoders, and so may executables. *)
  List.iter
    (fun rel ->
      Alcotest.(check (list string)) ("A1 not in force for " ^ rel) []
        (rule_ids (findings "a1_bad" rel)))
    [ "lib/codec/a1_bad.ml"; "bin/a1_bad.ml" ]

let test_finding_format () =
  match findings "d3_bad" "lib/bft/d3_bad.ml" with
  | f :: _ ->
    let s = C.pp_finding f in
    Alcotest.(check bool)
      (Printf.sprintf "pp_finding %S has file:line: [RULE] shape" s)
      true
      (String.length s > 0
      && String.sub s 0 (String.length "lib/bft/d3_bad.ml:") = "lib/bft/d3_bad.ml:"
      && Base_util.Str_contains.contains s "[D3]")
  | [] -> Alcotest.fail "expected findings in d3_bad"

(* Comparisons on variables of structured type: judged by the
   instantiation type, one finding per comparison site. *)
let test_typed_d1_blind_spot () =
  let fs = findings "d1_typed_bad" "lib/bft/d1_typed_bad.ml" in
  Alcotest.(check (list string)) "flags only D1" [ "D1" ] (rule_ids fs);
  Alcotest.(check int) "one finding per comparison site" 3 (List.length fs)

(* A sort helper defined in another structure item satisfies D3. *)
let test_typed_d3_cross_item_sort () =
  Alcotest.(check (list string))
    "the cross-item helper is resolved and accepted" []
    (rule_ids (findings "d3_typed_ok" "lib/bft/d3_typed_ok.ml"))

let test_typed_env_reconstruction () =
  (* A weakened run (unreconstructable environments) must not pass
     silently; the fixture units reconstruct fully. *)
  Alcotest.(check int) "no environment failures" 0 !Typed.env_failures

(* --- taint pass ------------------------------------------------------------- *)

(* The tests run against the repo's real registry, so they also pin that
   the checked-in sanitizers.sexp parses and keeps the entries the
   fixtures rely on. *)
let registry =
  lazy
    (let candidates =
       [
         Filename.concat (Filename.dirname Sys.executable_name) "../lint/sanitizers.sexp";
         "../lint/sanitizers.sexp";
         "lint/sanitizers.sexp";
       ]
     in
     let path =
       match List.find_opt Sys.file_exists candidates with
       | Some p -> p
       | None -> Alcotest.fail "sanitizers.sexp not found near the test executable"
     in
     match Taint.load_registry path with
     | Ok rg -> rg
     | Error e -> Alcotest.failf "registry: %s" e)

let taint_findings ?(rel_dir = "lib/bft/") name =
  let rel = rel_dir ^ name ^ ".ml" in
  match Taint.check_cmts ~registry:(Lazy.force registry) ~cmt_root [ (rel, fixture_cmt name) ] with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok fs -> List.map (fun f -> (f.C.line, C.rule_name f.C.rule)) fs

(* Exact (line, rule) pins in both directions: the bad fixture flags
   precisely these sites, the ok fixture (same shapes, sanitized) flags
   nothing. *)
let test_taint_b1 () =
  Alcotest.(check (list (pair int string)))
    "b1_bad: allocation, byte range, loop bound, via-helper, via-HOF argument"
    [ (11, "B1"); (14, "B1"); (18, "B1"); (25, "B1"); (32, "B1") ]
    (taint_findings "b1_bad");
  Alcotest.(check (list (pair int string))) "b1_ok: all sanitized" []
    (taint_findings "b1_ok")

let test_taint_b2 () =
  Alcotest.(check (list (pair int string)))
    "b2_bad: mutation sequenced before verification"
    [ (14, "B2"); (19, "B2") ]
    (taint_findings "b2_bad");
  Alcotest.(check (list (pair int string)))
    "b2_ok: verify dominates, no handler, or only hashing precedes the check" []
    (taint_findings "b2_ok")

let test_taint_b3 () =
  Alcotest.(check (list (pair int string)))
    "b3_bad: watermark setfield, timer field call, tree coordinate"
    [ (19, "B3"); (22, "B3"); (25, "B3") ]
    (taint_findings "b3_bad");
  Alcotest.(check (list (pair int string))) "b3_ok: all validated" []
    (taint_findings "b3_ok");
  Alcotest.(check (list (pair int string)))
    "b3_intake_bad: client-table slot lookup, direct and in a helper"
    [ (15, "B3"); (17, "B3") ]
    (taint_findings "b3_intake_bad");
  Alcotest.(check (list (pair int string))) "b3_intake_ok: behind Intake.is_client" []
    (taint_findings "b3_intake_ok")

let test_taint_cross_module () =
  (* The source-to-sink chain crosses a compilation-unit boundary; only
     the joint fixpoint over both units connects it. *)
  let pairs =
    [
      ("lib/bft/taint_helper.ml", fixture_cmt "taint_helper");
      ("lib/bft/b1_cross_bad.ml", fixture_cmt "b1_cross_bad");
    ]
  in
  match Taint.check_cmts ~registry:(Lazy.force registry) ~cmt_root pairs with
  | Error e -> Alcotest.failf "cross-module fixture: %s" e
  | Ok fs ->
    Alcotest.(check (list (triple string int string)))
      "only the caller's allocation is flagged, through the helper"
      [ ("lib/bft/b1_cross_bad.ml", 11, "B1") ]
      (List.map (fun f -> (f.C.file, f.C.line, C.rule_name f.C.rule)) fs)

let test_taint_blind_spots () =
  (* Each documented blind spot (doc/lint.md) stays a blind spot until
     deliberately closed: the fixture must produce zero findings. *)
  Alcotest.(check (list (pair int string)))
    "taint_blind: heap laundering, implicit flow, recursion depth, \
     trusted-parameter bound, deferred callback"
    []
    (taint_findings "taint_blind")

let test_taint_rule_scoping () =
  (* B2 is scoped to lib/bft/: the same handler outside it is silent. *)
  Alcotest.(check (list (pair int string)))
    "B2 limited to lib/bft/" []
    (taint_findings ~rel_dir:"lib/base_core/" "b2_bad")

let test_taint_env_reconstruction () =
  Alcotest.(check int) "no environment failures during taint runs" 0
    !Typed.env_failures

let test_allowlist_roundtrip () =
  let tmp = Filename.temp_file "allowlist" ".sexp" in
  let ws =
    [
      { C.w_file = "lib/bft/replica.ml"; w_rule = C.D3; w_justification = "say \"why\"" };
      { C.w_file = "lib/codec/xdr.ml"; w_rule = C.E1; w_justification = "guard" };
    ]
  in
  C.save_allowlist tmp ws;
  (match C.load_allowlist tmp with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok ws' ->
    Alcotest.(check int) "entries survive" 2 (List.length ws');
    Alcotest.(check bool) "sorted + quoted justification survives" true
      (ws' = List.sort C.compare_waiver ws));
  Sys.remove tmp

(* A waiver is stale exactly when no finding has its file and rule. *)
let test_stale_waivers () =
  let waiver file rule = { C.w_file = file; w_rule = rule; w_justification = "why" } in
  let b1 = waiver "lib/codec/xdr.ml" C.B1 and d3 = waiver "lib/fs/fs_log.ml" C.D3 in
  let finding file rule = { C.file; line = 1; rule; msg = "" } in
  let stale findings =
    List.map
      (fun (w : C.waiver) -> w.w_file ^ ":" ^ C.rule_name w.w_rule)
      (C.stale_waivers [ b1; d3 ] findings)
  in
  Alcotest.(check (list string)) "a finding keeps its waiver" [ "lib/codec/xdr.ml:B1" ]
    (stale [ finding "lib/fs/fs_log.ml" C.D3 ]);
  Alcotest.(check (list string)) "same file, other rule: stale"
    [ "lib/codec/xdr.ml:B1"; "lib/fs/fs_log.ml:D3" ]
    (stale [ finding "lib/fs/fs_log.ml" C.D1 ]);
  Alcotest.(check (list string)) "nothing found: every waiver stale"
    [ "lib/codec/xdr.ml:B1"; "lib/fs/fs_log.ml:D3" ]
    (stale [])

(* --- U1: unused exports --------------------------------------------------- *)

let u1 fs =
  List.map (fun f -> (f.C.file, f.C.line, C.rule_name f.C.rule)) fs

(* The exporter poses as a library unit, the consumers as a binary and a
   test: of the four exports the one used inside its own module and the
   one only the test uses are flagged, at their .mli declarations.  test/
   is not a consumer, so leaving the test unit out changes nothing. *)
let test_u1_fixture () =
  let exporter = ("lib/util/u1_export.ml", fixture_cmt "u1_export") in
  let alias_and_open = ("bin/u1_consumer.ml", fixture_cmt "u1_consumer") in
  let test_use = ("test/u1_test_use.ml", fixture_cmt "u1_test_use") in
  let expected = [ ("lib/util/u1_export.mli", 10, "U1"); ("lib/util/u1_export.mli", 13, "U1") ] in
  Alcotest.(check (list (triple string int string)))
    "via_test and internal_only are unreferenced" expected
    (u1 (Typed.check_exports ~cmt_root [ exporter; alias_and_open; test_use ]));
  Alcotest.(check (list (triple string int string)))
    "the test/ unit keeps nothing alive" expected
    (u1 (Typed.check_exports ~cmt_root [ exporter; alias_and_open ]))

(* The repository itself: the U1 findings are exactly the values waived in
   lint/allowlist.sexp (the per-cell inspectors that wait for a status
   snapshot, and the lock clock no run can exercise yet), so a new export
   only tests use fails here.
   Systems.registers_wrapper (lib/workload/systems.ml, no .mli) is
   referenced from perfbench/ alone, so this fails if perfbench/ stops
   counting as a consumer. *)
let waived_u1 =
  [
    "lib/base_core/runtime.mli: Runtime.promote_now";
    "lib/base_core/runtime.mli: Runtime.trace";
    "lib/base_core/state_transfer.mli: State_transfer.inflight";
    "lib/base_core/state_transfer.mli: State_transfer.scoreboard";
    "lib/base_core/xshard.mli: Xshard.lock_clock";
    "lib/base_core/xshard.mli: Xshard.next_lock_ts";
    "lib/bft/replica.mli: Replica.low_watermark";
    "lib/bft/replica.mli: Replica.pending_count";
    "lib/bft/replica.mli: Replica.client_pending";
    "lib/bft/replica.mli: Replica.early_pre_prepares";
  ]

let test_u1_real_tree () =
  let failures = !Typed.env_failures in
  let units = Typed.units ~cmt_root Typed.u1_consumer_dirs in
  Alcotest.(check bool) "lib/ units scanned" true
    (List.length (List.filter (Typed.in_dirs [ "lib" ]) units) > 50);
  let fs = Typed.scan ~cmt_root ~dirs:[ "lib" ] units in
  let u1_values =
    List.filter_map
      (fun f ->
        if f.C.rule = C.U1 then
          Some (f.C.file ^ ": " ^ List.hd (String.split_on_char ' ' f.C.msg))
        else None)
      fs
  in
  Alcotest.(check (list string)) "U1 finds exactly the waived values" waived_u1 u1_values;
  Alcotest.(check bool) "Systems.registers_wrapper not flagged" false
    (List.exists (fun m -> Base_util.Str_contains.contains m "registers_wrapper") u1_values);
  Alcotest.(check int) "every unit's environment reconstructs" failures !Typed.env_failures

(* No source escapes the lint: every .ml under the scanned directories is
   a compiled unit, and one without a .cmt is reported (basecheck exits 2
   on it). *)
let test_every_source_checked () =
  let dirs = [ "lib"; "bin"; "bench" ] in
  let units = Typed.units ~cmt_root dirs in
  let sources = List.concat_map (C.ml_files ~root:cmt_root) dirs in
  Alcotest.(check (list string)) "every source has a unit" [] (Typed.uncompiled sources units);
  Alcotest.(check int) "one unit per source" (List.length sources) (List.length units);
  Alcotest.(check (list string))
    "a source without a .cmt is reported" [ "lib/bft/ghost.ml" ]
    (Typed.uncompiled ("lib/bft/ghost.ml" :: sources) units)

let suite =
  [
    Alcotest.test_case "bad fixtures flag the right rule" `Quick test_bad_fixtures;
    Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
    Alcotest.test_case "rule scoping" `Quick test_rule_scoping;
    Alcotest.test_case "finding format" `Quick test_finding_format;
    Alcotest.test_case "typed: D1 on structured variables" `Quick
      test_typed_d1_blind_spot;
    Alcotest.test_case "typed: D3 cross-item sort helper" `Quick
      test_typed_d3_cross_item_sort;
    Alcotest.test_case "typed: environments reconstruct" `Quick
      test_typed_env_reconstruction;
    Alcotest.test_case "taint: B1 both directions" `Quick test_taint_b1;
    Alcotest.test_case "taint: B2 both directions" `Quick test_taint_b2;
    Alcotest.test_case "taint: B3 both directions" `Quick test_taint_b3;
    Alcotest.test_case "taint: cross-module chain" `Quick test_taint_cross_module;
    Alcotest.test_case "taint: blind spots stay pinned" `Quick test_taint_blind_spots;
    Alcotest.test_case "taint: rule scoping" `Quick test_taint_rule_scoping;
    Alcotest.test_case "taint: environments reconstruct" `Quick
      test_taint_env_reconstruction;
    Alcotest.test_case "allowlist round-trip" `Quick test_allowlist_roundtrip;
    Alcotest.test_case "stale waivers judged per file and rule" `Quick test_stale_waivers;
    Alcotest.test_case "U1: alias and open count, test/ does not" `Quick test_u1_fixture;
    Alcotest.test_case "U1: repository has no dead exports" `Quick test_u1_real_tree;
    Alcotest.test_case "every source is a checked unit" `Quick test_every_source_checked;
  ]
