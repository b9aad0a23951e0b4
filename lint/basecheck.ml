(* CLI driver for the basecheck lint.

   Usage: basecheck [--root DIR] [--allowlist FILE] [--update] [--typed]
                    [--taint] [--sanitizers FILE] [--cmt-root DIR]
                    [--report FILE] DIR...

   Scans every .ml under the given directories (relative to --root),
   prints non-allowlisted findings as "file:line: [RULE] message" and
   exits 1 if there are any.  --update regenerates the allowlist from the
   current findings (sorted by file then rule, justifications preserved)
   so review diffs are stable; waivers of rules that no backend of the run
   checks are kept as they are.

   --typed additionally runs the typed backend (Typed_checks) over the
   .cmt files below --cmt-root (default: ROOT/_build/default when that
   exists, else ROOT); build them first with `dune build @check`.  Its
   rule U1 also reads the units of every directory in
   Typed_checks.u1_consumer_dirs, whichever DIRs are given.

   --taint runs the interprocedural taint backend (Typed_taint) over the
   same cmts, with sources/sanitizers/sinks from --sanitizers (default:
   ROOT/lint/sanitizers.sexp).

   --report writes per-rule {found, waived} counts as a canonical
   lib/obs JSON document, so lint trends diff across PRs like the bench
   metrics do. *)

module Checks = Basecheck_lib.Checks
module Typed = Basecheck_lib.Typed_checks
module Taint = Basecheck_lib.Typed_taint
module Json = Base_obs.Json

let usage =
  "usage: basecheck [--root DIR] [--allowlist FILE] [--update] [--typed] [--taint] \
   [--sanitizers FILE] [--cmt-root DIR] [--report FILE] DIR..."

let () =
  let root = ref "." in
  let allowlist_path = ref "lint/allowlist.sexp" in
  let update = ref false in
  let typed = ref false in
  let taint = ref false in
  let sanitizers_path = ref None in
  let report_path = ref None in
  let cmt_root = ref None in
  let dirs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: d :: rest ->
      root := d;
      parse_args rest
    | "--allowlist" :: f :: rest ->
      allowlist_path := f;
      parse_args rest
    | "--update" :: rest ->
      update := true;
      parse_args rest
    | "--typed" :: rest ->
      typed := true;
      parse_args rest
    | "--taint" :: rest ->
      taint := true;
      parse_args rest
    | "--sanitizers" :: f :: rest ->
      sanitizers_path := Some f;
      parse_args rest
    | "--report" :: f :: rest ->
      report_path := Some f;
      parse_args rest
    | "--cmt-root" :: d :: rest ->
      cmt_root := Some d;
      parse_args rest
    | ("--root" | "--allowlist" | "--cmt-root" | "--sanitizers" | "--report") :: []
    | "--help" :: _ ->
      prerr_endline usage;
      exit 2
    | d :: rest ->
      dirs := d :: !dirs;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let dirs = List.rev !dirs in
  if dirs = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let fail msg =
    Printf.eprintf "basecheck: %s\n" msg;
    exit 2
  in
  let files = List.concat_map (Checks.ml_files ~root:!root) dirs in
  let syntactic_findings =
    List.concat_map
      (fun rel ->
        match Checks.check_file ~rel (Filename.concat !root rel) with
        | Ok fs -> fs
        | Error e -> fail e)
      files
  in
  let effective_cmt_root () =
    match !cmt_root with
    | Some d -> d
    | None ->
      let dflt = Filename.concat !root "_build/default" in
      if Sys.file_exists dflt then dflt else !root
  in
  let warn_env_failures () =
    if !Typed.env_failures > 0 then
      Printf.eprintf
        "basecheck: warning: %d expression environment(s) could not be reconstructed; \
         typed findings may be incomplete\n"
        !Typed.env_failures
  in
  let typed_findings =
    if not !typed then []
    else begin
      let cmt_root = effective_cmt_root () in
      let findings, n_units = Typed.scan ~cmt_root ~dirs in
      if n_units = 0 then
        fail
          (Printf.sprintf
             "--typed: no .cmt files for %s under %s (run `dune build @check` first)"
             (String.concat " " dirs) cmt_root);
      warn_env_failures ();
      findings
    end
  in
  let taint_findings =
    if not !taint then []
    else begin
      let sanitizers =
        match !sanitizers_path with
        | Some f -> f
        | None -> Filename.concat !root "lint/sanitizers.sexp"
      in
      let registry =
        match Taint.load_registry sanitizers with Ok rg -> rg | Error e -> fail e
      in
      let cmt_root = effective_cmt_root () in
      let findings, n_units = Taint.scan ~registry ~cmt_root ~dirs in
      if n_units = 0 then
        fail
          (Printf.sprintf
             "--taint: no .cmt files for %s under %s (run `dune build @check` first)"
             (String.concat " " dirs) cmt_root);
      warn_env_failures ();
      findings
    end
  in
  let findings =
    List.sort_uniq Checks.compare_finding
      (syntactic_findings @ typed_findings @ taint_findings)
  in
  let backends =
    List.filter_map
      (fun (flag, b) -> if flag then Some b else None)
      [ (true, Checks.Syntactic); (!typed, Checks.Typed); (!taint, Checks.Taint) ]
  in
  if !update then begin
    let old =
      match Checks.load_allowlist !allowlist_path with Ok ws -> ws | Error e -> fail e
    in
    let justification file rule =
      match
        List.find_opt
          (fun (w : Checks.waiver) ->
            String.equal w.w_file file && w.w_rule = rule)
          old
      with
      | Some w -> w.w_justification
      | None -> "TODO: justify or fix (added by --update)"
    in
    let waivers =
      List.map
        (fun (f : Checks.finding) ->
          {
            Checks.w_file = f.file;
            w_rule = f.rule;
            w_justification = justification f.file f.rule;
          })
        findings
      @ List.filter
          (fun (w : Checks.waiver) -> not (Checks.checks_rule ~backends w.w_rule))
          old
    in
    Checks.save_allowlist !allowlist_path waivers;
    Printf.printf "basecheck: wrote %s (%d entries)\n" !allowlist_path
      (List.length (List.sort_uniq Checks.compare_waiver waivers))
  end
  else begin
    let waivers =
      match Checks.load_allowlist !allowlist_path with Ok ws -> ws | Error e -> fail e
    in
    let active = List.filter (fun f -> not (Checks.waived waivers f)) findings in
    (* The lint report mirrors BENCH_metrics.json: canonical JSON, one
       {found, waived} pair per rule, so `diff` across PRs shows lint
       trends the same way bench sections do. *)
    (match !report_path with
    | None -> ()
    | Some path ->
      let per_rule =
        List.map
          (fun rule ->
            let count fs = List.length (List.filter (fun (f : Checks.finding) -> f.rule = rule) fs) in
            ( Checks.rule_name rule,
              Json.obj
                [
                  ("found", Json.Int (count findings));
                  ("waived", Json.Int (count (List.filter (Checks.waived waivers) findings)));
                ] ))
          Checks.all_rules
      in
      let doc =
        Json.obj
          [
            ( "backends",
              Json.List (List.map (fun b -> Json.Str (Checks.backend_name b)) backends) );
            ("files_scanned", Json.Int (List.length files));
            ("rules", Json.obj per_rule);
            ("active_findings", Json.Int (List.length active));
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n';
      close_out oc);
    List.iter (fun f -> print_endline (Checks.pp_finding f)) active;
    (* Stale waivers are reported (hygiene) but do not fail the build. *)
    List.iter
      (fun (w : Checks.waiver) ->
        Printf.eprintf "basecheck: stale allowlist entry (%s, %s) — no findings\n" w.w_file
          (Checks.rule_name w.w_rule))
      (Checks.stale_waivers ~backends waivers findings);
    if active <> [] then begin
      Printf.eprintf "basecheck: %d finding(s) in %d file(s) scanned\n"
        (List.length active) (List.length files);
      exit 1
    end
    else
      Printf.eprintf "basecheck: clean (%d files scanned, %d waiver(s))\n"
        (List.length files) (List.length waivers)
  end
