(* basecheck fixtures: one bad snippet per rule, checked under a
   repo-relative name that activates every rule scope, plus a clean file
   that must produce no findings.  The fixtures live in test/lint/ so they
   are parsed but never compiled. *)

module C = Basecheck_lib.Checks
module Typed = Basecheck_lib.Typed_checks
module Taint = Basecheck_lib.Typed_taint

(* Fixtures sit next to the test executable; fall back to cwd so the suite
   also runs from the source tree. *)
let fixture name =
  let local = Filename.concat (Filename.dirname Sys.executable_name) "lint" in
  Filename.concat (if Sys.file_exists local then local else "lint") name

(* The compiled fixtures' .cmt files, produced by the lint_typed_fixtures
   library in test/lint. *)
let fixture_cmt name =
  Filename.concat
    (Filename.concat (Filename.dirname (fixture "x")) ".lint_typed_fixtures.objs/byte")
    ("lint_typed_fixtures__" ^ String.capitalize_ascii name ^ ".cmt")

let findings path rel =
  match C.check_file ~rel path with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok fs -> fs

let rule_ids fs = List.sort_uniq String.compare (List.map (fun f -> C.rule_name f.C.rule) fs)

let check_fixture name expected_rule expected_count =
  let fs = findings (fixture name) ("lib/bft/" ^ name) in
  Alcotest.(check (list string))
    (name ^ " flags only " ^ expected_rule)
    [ expected_rule ] (rule_ids fs);
  Alcotest.(check int) (name ^ " finding count") expected_count (List.length fs)

let test_bad_fixtures () =
  check_fixture "d1_bad.ml" "D1" 4;
  check_fixture "d2_bad.ml" "D2" 3;
  check_fixture "d3_bad.ml" "D3" 2;
  check_fixture "d4_bad.ml" "D4" 3;
  check_fixture "e1_bad.ml" "E1" 3

let test_clean_fixture () =
  Alcotest.(check (list string))
    "clean.ml produces no findings" []
    (rule_ids (findings (fixture "clean.ml") "lib/bft/clean.ml"))

let test_rule_scoping () =
  (* The same E1 fixture outside a Byzantine-facing path is not flagged. *)
  Alcotest.(check (list string))
    "E1 limited to Byzantine-facing paths" []
    (rule_ids (findings (fixture "e1_bad.ml") "lib/util/e1_bad.ml"));
  (* D4 only applies to library code: executables may exit. *)
  Alcotest.(check (list string))
    "D4 limited to lib/" []
    (rule_ids (findings (fixture "d4_bad.ml") "bin/d4_bad.ml"))

let test_finding_format () =
  match findings (fixture "d3_bad.ml") "lib/bft/d3_bad.ml" with
  | f :: _ ->
    let s = C.pp_finding f in
    Alcotest.(check bool)
      (Printf.sprintf "pp_finding %S has file:line: [RULE] shape" s)
      true
      (String.length s > 0
      && String.sub s 0 (String.length "lib/bft/d3_bad.ml:") = "lib/bft/d3_bad.ml:"
      && Base_util.Str_contains.contains s "[D3]")
  | [] -> Alcotest.fail "expected findings in d3_bad.ml"

let typed_findings name rel =
  match Typed.check_cmt ~rel (fixture_cmt name) with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok fs -> fs

(* The two documented blind spots of the syntactic pass, each proven
   closed: the fixture is clean under one backend and flagged under the
   other. *)
let test_typed_d1_blind_spot () =
  let rel = "lib/bft/d1_typed_bad.ml" in
  Alcotest.(check (list string))
    "syntactic pass is blind to (=) on structured variables" []
    (rule_ids (findings (fixture "d1_typed_bad.ml") rel));
  let fs = typed_findings "d1_typed_bad" rel in
  Alcotest.(check (list string)) "typed pass flags only D1" [ "D1" ] (rule_ids fs);
  Alcotest.(check int) "one finding per comparison site" 3 (List.length fs)

let test_typed_d3_cross_item_sort () =
  let rel = "lib/bft/d3_typed_ok.ml" in
  Alcotest.(check (list string))
    "syntactic pass false-positives on the cross-item helper" [ "D3" ]
    (rule_ids (findings (fixture "d3_typed_ok.ml") rel));
  Alcotest.(check (list string))
    "typed pass resolves the helper and accepts" []
    (rule_ids (typed_findings "d3_typed_ok" rel))

let test_typed_env_reconstruction () =
  (* A weakened typed run (unreconstructable environments) must not pass
     silently; the fixture units reconstruct fully. *)
  Alcotest.(check int) "no environment failures" 0 !Typed.env_failures

(* --- taint backend ---------------------------------------------------------- *)

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
  match Taint.check_cmt ~registry:(Lazy.force registry) ~rel (fixture_cmt name) with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok fs -> List.map (fun f -> (f.C.line, C.rule_name f.C.rule)) fs

(* Exact (line, rule) pins in both directions: the bad fixture flags
   precisely these sites, the ok fixture (same shapes, sanitized) flags
   nothing. *)
let test_taint_b1 () =
  Alcotest.(check (list (pair int string)))
    "b1_bad: allocation, byte range, loop bound, via-helper"
    [ (11, "B1"); (14, "B1"); (18, "B1"); (25, "B1") ]
    (taint_findings "b1_bad");
  Alcotest.(check (list (pair int string))) "b1_ok: all sanitized" []
    (taint_findings "b1_ok")

let test_taint_b2 () =
  Alcotest.(check (list (pair int string)))
    "b2_bad: mutation sequenced before verification"
    [ (14, "B2"); (19, "B2") ]
    (taint_findings "b2_bad");
  Alcotest.(check (list (pair int string))) "b2_ok: verify dominates or no handler" []
    (taint_findings "b2_ok")

let test_taint_b3 () =
  Alcotest.(check (list (pair int string)))
    "b3_bad: watermark setfield, timer field call, tree coordinate"
    [ (19, "B3"); (22, "B3"); (25, "B3") ]
    (taint_findings "b3_bad");
  Alcotest.(check (list (pair int string))) "b3_ok: all validated" []
    (taint_findings "b3_ok")

let test_taint_cross_module () =
  (* The source-to-sink chain crosses a compilation-unit boundary; only
     the joint fixpoint over both units connects it. *)
  let pairs =
    [
      ("lib/bft/taint_helper.ml", fixture_cmt "taint_helper");
      ("lib/bft/b1_cross_bad.ml", fixture_cmt "b1_cross_bad");
    ]
  in
  match Taint.check_cmts ~registry:(Lazy.force registry) pairs with
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

(* Each backend vouches only for the rules it can report: the taint-only
   waivers must not read as stale in a syntactic or typed run (nor be
   dropped by its --update), while a waiver whose rule did run and found
   nothing still does. *)
let test_stale_waivers () =
  let waiver file rule = { C.w_file = file; w_rule = rule; w_justification = "why" } in
  let b1 = waiver "lib/codec/xdr.ml" C.B1 and d3 = waiver "lib/fs/fs_log.ml" C.D3 in
  let e2 = waiver "lib/bft/replica.ml" C.E2 in
  let d3_finding = { C.file = "lib/fs/fs_log.ml"; line = 1; rule = C.D3; msg = "" } in
  let stale backends findings =
    List.map
      (fun (w : C.waiver) -> w.w_file ^ ":" ^ C.rule_name w.w_rule)
      (C.stale_waivers ~backends [ b1; d3; e2 ] findings)
  in
  Alcotest.(check (list string)) "syntactic run: taint and typed-only rules not judged" []
    (stale [ C.Syntactic ] [ d3_finding ]);
  Alcotest.(check (list string)) "typed run: E2 judged, B1 not" [ "lib/bft/replica.ml:E2" ]
    (stale [ C.Syntactic; C.Typed ] [ d3_finding ]);
  Alcotest.(check (list string)) "all backends, nothing found: every waiver stale"
    [ "lib/codec/xdr.ml:B1"; "lib/fs/fs_log.ml:D3"; "lib/bft/replica.ml:E2" ]
    (stale [ C.Syntactic; C.Typed; C.Taint ] []);
  Alcotest.(check bool) "--update without --taint keeps B-rule waivers" false
    (C.checks_rule ~backends:[ C.Syntactic; C.Typed ] C.B1)

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
    Alcotest.test_case "stale waivers judged per backend" `Quick test_stale_waivers;
  ]
