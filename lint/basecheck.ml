(* CLI driver for the basecheck lint.

   Usage: basecheck [--root DIR] [--allowlist FILE] [--update]
                    [--sanitizers FILE] [--cmt-root DIR] [--report FILE] DIR...

   Checks every compilation unit whose source is under the given
   directories (relative to --root): the rule walk (Typed_checks) and the
   interprocedural taint pass (Typed_taint) both read the .cmt files below
   --cmt-root (default: ROOT/_build/default when that exists, else ROOT);
   build them first with `dune build @check`.  A .ml file under DIR with
   no .cmt exits 2, so no source escapes the lint.  Rule U1 also reads
   the units of every directory in Typed_checks.u1_consumer_dirs,
   whichever DIRs are given; the taint pass takes its sources, sanitizers
   and sinks from --sanitizers (default: ROOT/lint/sanitizers.sexp).

   Non-allowlisted findings print as "file:line: [RULE] message"; the run
   exits 1 if there are any, or any stale waiver (an allowlist entry with
   no finding).  --update regenerates the allowlist from the current
   findings (sorted by file then rule, justifications preserved) so review
   diffs are stable.

   --report writes per-rule {found, waived} counts as a canonical
   lib/obs JSON document, so lint trends diff across PRs like the bench
   metrics do. *)

module Checks = Basecheck_lib.Checks
module Typed = Basecheck_lib.Typed_checks
module Taint = Basecheck_lib.Typed_taint
module Json = Base_obs.Json

let usage =
  "usage: basecheck [--root DIR] [--allowlist FILE] [--update] [--sanitizers FILE] \
   [--cmt-root DIR] [--report FILE] DIR..."

let () =
  let root = ref "." in
  let allowlist_path = ref "lint/allowlist.sexp" in
  let update = ref false in
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
    | "--sanitizers" :: f :: rest ->
      sanitizers_path := Some f;
      parse_args rest
    | "--report" :: f :: rest ->
      report_path := Some f;
      parse_args rest
    | "--cmt-root" :: d :: rest ->
      cmt_root := Some d;
      parse_args rest
    | d :: rest when not (String.starts_with ~prefix:"-" d) ->
      dirs := d :: !dirs;
      parse_args rest
    | _ ->
      prerr_endline usage;
      exit 2
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
  let cmt_root =
    match !cmt_root with
    | Some d -> d
    | None ->
      let dflt = Filename.concat !root "_build/default" in
      if Sys.file_exists dflt then dflt else !root
  in
  let registry =
    let path =
      Option.value !sanitizers_path ~default:(Filename.concat !root "lint/sanitizers.sexp")
    in
    match Taint.load_registry path with Ok rg -> rg | Error e -> fail e
  in
  let sources =
    try List.concat_map (Checks.ml_files ~root:!root) dirs with Sys_error e -> fail e
  in
  let units =
    Typed.units ~cmt_root (List.sort_uniq String.compare (dirs @ Typed.u1_consumer_dirs))
  in
  let checked = List.filter (Typed.in_dirs dirs) units in
  (match Typed.uncompiled sources checked with
  | [] -> ()
  | missing ->
    fail
      (Printf.sprintf "no .cmt under %s for %s (run `dune build @check` first)" cmt_root
         (String.concat " " missing)));
  let findings =
    List.sort_uniq Checks.compare_finding
      (Typed.scan ~cmt_root ~dirs units @ Taint.scan ~registry ~cmt_root checked)
  in
  if !Typed.env_failures > 0 then
    Printf.eprintf
      "basecheck: warning: %d expression environment(s) could not be reconstructed; \
       findings may be incomplete\n"
      !Typed.env_failures;
  let n_checked = List.length checked in
  let waivers =
    match Checks.load_allowlist !allowlist_path with Ok ws -> ws | Error e -> fail e
  in
  if !update then begin
    let justification file rule =
      match
        List.find_opt
          (fun (w : Checks.waiver) -> String.equal w.w_file file && w.w_rule = rule)
          waivers
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
    in
    Checks.save_allowlist !allowlist_path waivers;
    Printf.printf "basecheck: wrote %s (%d entries)\n" !allowlist_path
      (List.length (List.sort_uniq Checks.compare_waiver waivers))
  end
  else begin
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
            ("files_scanned", Json.Int n_checked);
            ("rules", Json.obj per_rule);
            ("active_findings", Json.Int (List.length active));
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n';
      close_out oc);
    List.iter (fun f -> print_endline (Checks.pp_finding f)) active;
    (* A stale waiver fails the run too: left in place, it would silently
       waive the next finding of its rule in that file. *)
    let stale = Checks.stale_waivers waivers findings in
    List.iter
      (fun (w : Checks.waiver) ->
        Printf.eprintf "basecheck: stale allowlist entry (%s, %s) — no findings\n" w.w_file
          (Checks.rule_name w.w_rule))
      stale;
    if active <> [] || stale <> [] then begin
      Printf.eprintf "basecheck: %d finding(s) and %d stale waiver(s) in %d file(s) scanned\n"
        (List.length active) (List.length stale) n_checked;
      exit 1
    end
    else
      Printf.eprintf "basecheck: clean (%d files scanned, %d waiver(s))\n" n_checked
        (List.length waivers)
  end
