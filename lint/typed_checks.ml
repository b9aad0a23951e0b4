(* Typed basecheck backend: the same determinism / Byzantine-robustness
   rules, re-run over the Typedtree stored in dune's [.cmt] files.

   The syntactic pass (Checks) approximates semantic properties from the
   Parsetree alone and has two documented blind spots: [(=)] on a
   *variable* of structured type, and a sort performed by a helper defined
   in a different structure item.  With type and identifier information
   both close:

   - D1-typed flags [(=)]/[(<>)]/[compare]/[min]/[max] whenever the
     instantiation type is not known-immediate (records, lists, strings,
     floats, functions, abstract types...), regardless of the operands'
     syntactic shape.  Comparisons against a constant constructor
     ([x = None], [l = []]) are exempt: tag inspection never descends.
   - D3-typed resolves the identity of sort helpers across structure
     items of the same compilation unit (a fixpoint over the value idents
     each item defines and mentions), so [let sorted = ... List.sort ...]
     in one item satisfies a [Hashtbl.fold] in another.
   - E1-typed re-checks [failwith]/[invalid_arg]/[assert false] with
     resolved paths, catching aliased uses the Parsetree cannot see.
   - E2-typed (new, typed-only) flags a discarded [result]: [ignore e] or
     [let _ = e] where [e : (_, _) result] throws away a decode/validation
     error instead of handling it.
   - U1 (typed-only) flags a value a [lib/] unit exports that no other
     unit under {!u1_consumer_dirs} references.

   Scoping and suppression are shared with the syntactic pass
   ({!Checks.rule_applies}, lint/allowlist.sexp). *)

module T = Typedtree
open Typedtree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Count of expressions whose environment could not be reconstructed from
   the cmt summary (missing cmi on the load path...).  Such sites are
   skipped conservatively; the CLI surfaces a nonzero count so weakened
   runs are never silent. *)
let env_failures = ref 0

let initialized = ref false

(* The load path must contain every directory holding the [.cmi] files the
   scanned units reference (dune's .objs/byte dirs) plus the stdlib. *)
let init_load_path ~extra_dirs =
  let dirs = List.sort_uniq String.compare extra_dirs in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (dirs @ [ Config.standard_library ]);
  Envaux.reset_cache ();
  initialized := true

let env_of_summary env =
  match Envaux.env_of_only_summary env with
  | env -> Some env
  | exception e ->
    incr env_failures;
    if Sys.getenv_opt "BASECHECK_DEBUG" <> None then
      prerr_endline
        ("env_of_summary: "
        ^
        match e with
        | Envaux.Error err -> Format.asprintf "%a" Envaux.report_error err
        | e -> Printexc.to_string e);
    None

(* --- path classification --------------------------------------------------- *)

let path_parts p =
  let rec go acc = function
    | Path.Pident id -> Ident.name id :: acc
    | Path.Pdot (p, s) -> go (s :: acc) p
    | Path.Papply (p, _) -> go acc p
    | Path.Pextra_ty (p, _) -> go acc p
  in
  go [] p

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

(* Only the Stdlib polymorphic comparators: a user-defined [=] resolved to
   some other path *is* the typed equality we are asking for. *)
let d1_target p =
  match path_parts p with
  | [ "Stdlib"; (("=" | "<>" | "compare" | "min" | "max") as f) ] -> Some f
  | _ -> None

let is_sort_fn p =
  match strip_stdlib (path_parts p) with
  | [ ("List" | "ListLabels"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ]
  | [ ("Array" | "ArrayLabels"); ("sort" | "stable_sort") ] ->
    true
  | _ -> false

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Cross-unit sort helpers cannot be resolved from one cmt; a name match is
   the documented compromise ([Replica.sorted_bindings]...). *)
let name_says_sorted p =
  match List.rev (path_parts p) with
  | last :: _ -> contains_substring (String.lowercase_ascii last) "sort"
  | [] -> false

let is_hashtbl_iter p =
  match path_parts p with
  | [ "Stdlib"; "Hashtbl"; (("iter" | "fold") as f) ] -> Some f
  | _ -> None

let is_failwith p =
  match path_parts p with
  | [ "Stdlib"; (("failwith" | "invalid_arg") as f) ] -> Some f
  | _ -> None

let is_ignore p =
  match path_parts p with [ "Stdlib"; "ignore" ] -> true | _ -> false

(* --- type classification --------------------------------------------------- *)

let predef_immediate p =
  Path.same p Predef.path_int || Path.same p Predef.path_char
  || Path.same p Predef.path_bool || Path.same p Predef.path_unit

let expand env ty = try Ctype.expand_head env ty with _ -> ty

(* Is structural comparison at [ty] definitely tag/value-only?  Type
   variables are unjudgeable at this site (the caller's instantiation is
   checked where it occurs) and declared-immediate types (ints, chars,
   enums, [type view = int]...) compare without descending. *)
let immediate env ty =
  match Types.get_desc (expand env ty) with
  | Tvar _ | Tunivar _ -> true
  | Tconstr (p, _, _) -> (
    predef_immediate p
    ||
    match Env.find_type p env with
    | exception _ -> false
    | decl -> (
      match decl.type_immediate with
      | Always | Always_on_64bits -> true
      | Unknown -> false))
  | _ -> false

let is_result env ty =
  match Types.get_desc (expand env ty) with
  | Tconstr (p, _, _) -> (
    match path_parts p with
    | [ "result" ] | [ "Stdlib"; "result" ] | [ "Stdlib"; "Result"; "t" ] -> true
    | _ -> false)
  | _ -> false

let type_to_string ty =
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "?"

(* A constant-constructor operand ([None], [[]], [true]) bounds the
   comparison to a tag check; it never descends into structure. *)
let const_constructor (e : T.expression) =
  match e.exp_desc with
  | Texp_construct (_, cstr, []) -> cstr.cstr_arity = 0
  | _ -> false

(* --- per-unit walk --------------------------------------------------------- *)

type ctx = { rel : string; mutable findings : Checks.finding list }

let flag ctx rule line msg =
  if Checks.rule_applies rule ctx.rel then
    ctx.findings <- { Checks.file = ctx.rel; line; rule; msg } :: ctx.findings

(* Everything D3 needs to know about one top-level structure item. *)
type item_info = {
  mutable defined : Ident.t list;  (* value idents the item binds *)
  mutable locals_used : Ident.t list;  (* local idents the item mentions *)
  mutable sorts : bool;  (* calls a sort (or sort-named helper) directly *)
  mutable hashtbl_uses : (int * string) list;
}

let d1_check ctx env_raw line name (ty : Types.type_expr) =
  match env_of_summary env_raw with
  | None -> ()
  | Some env ->
    if not (immediate env ty) then
      flag ctx Checks.D1 line
        (Printf.sprintf
           "polymorphic %s instantiated at non-immediate type %s; use a typed \
            comparison"
           (match name with "=" | "<>" -> Printf.sprintf "(%s)" name | f -> f)
           (type_to_string ty))

let e2_check ctx env_raw line ~via (e : T.expression) =
  match env_of_summary env_raw with
  | None -> ()
  | Some env ->
    if is_result env e.exp_type then
      flag ctx Checks.E2 line
        (Printf.sprintf
           "%s discards a %s: handle or propagate the error instead" via
           (type_to_string e.exp_type))

let rec check_expr ctx item iter (e : T.expression) =
  let line = line_of e.exp_loc in
  match e.exp_desc with
  | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) ->
    let operands = List.filter_map (fun (_, a) -> a) args in
    (match d1_target p with
    | Some name -> (
      (* Instantiation type: the first present operand. *)
      match operands with
      | a0 :: _ when not (List.exists const_constructor operands) ->
        d1_check ctx a0.exp_env (line_of fn.exp_loc) name a0.exp_type
      | _ -> ())
    | None ->
      ident_checks ctx item iter fn;
      if is_ignore p then
        List.iter (fun a -> e2_check ctx a.exp_env line ~via:"ignore" a) operands);
    List.iter (fun a -> iter.Tast_iterator.expr iter a) operands
  | Texp_ident _ -> ident_checks ctx item iter e
  | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ }, _)
    ->
    flag ctx Checks.E1 line
      "assert false is reachable from message handlers; return Result/Option instead"
  | Texp_let (_, vbs, _) ->
    List.iter (discarded_result_binding ctx) vbs;
    Tast_iterator.default_iterator.expr iter e
  | _ -> Tast_iterator.default_iterator.expr iter e

(* Checks on an identifier in any position (value or head of application). *)
and ident_checks ctx item _iter (e : T.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    let line = line_of e.exp_loc in
    (match p with
    | Path.Pident id -> item.locals_used <- id :: item.locals_used
    | _ -> ());
    if is_sort_fn p || name_says_sorted p then item.sorts <- true;
    (match is_hashtbl_iter p with
    | Some f ->
      item.hashtbl_uses <-
        ( line,
          Printf.sprintf
            "Hashtbl.%s iterates in hash order; sort before emitting or allowlist" f )
        :: item.hashtbl_uses
    | None -> ());
    (match is_failwith p with
    | Some f ->
      flag ctx Checks.E1 line
        (Printf.sprintf
           "%s is reachable from message handlers; return Result/Option instead" f)
    | None -> ());
    (* A bare Stdlib comparator whose *use site* already fixes the argument
       type ([List.mem digest ds] hides an (=) instantiation the syntactic
       pass sees only as a bare value). *)
    match d1_target p with
    | Some name -> (
      match Types.get_desc e.exp_type with
      | Tarrow (_, targ, _, _) -> d1_check ctx e.exp_env line name targ
      | _ -> ())
    | None -> ())
  | _ -> ()

and discarded_result_binding ctx (vb : T.value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_any ->
    e2_check ctx vb.vb_expr.exp_env (line_of vb.vb_pat.pat_loc) ~via:"let _"
      vb.vb_expr
  | _ -> ()

let check_item ctx (item : T.structure_item) =
  let info = { defined = []; locals_used = []; sorts = false; hashtbl_uses = [] } in
  (match item.str_desc with
  | Tstr_value (_, vbs) ->
    List.iter
      (fun (vb : T.value_binding) ->
        info.defined <- T.pat_bound_idents vb.vb_pat @ info.defined;
        discarded_result_binding ctx vb)
      vbs
  | _ -> ());
  let it =
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr = (fun it e -> check_expr ctx info it e);
    }
  in
  it.structure_item it item;
  info

let check_structure ctx (str : T.structure) =
  let infos = List.map (check_item ctx) str.str_items in
  (* Fixpoint: an item "sorts" if it mentions a sorting local helper. *)
  let module ISet = Set.Make (struct
    type t = Ident.t

    let compare = Ident.compare
  end) in
  let sorting = ref ISet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun info ->
        let mentions_sorting =
          info.sorts || List.exists (fun id -> ISet.mem id !sorting) info.locals_used
        in
        if mentions_sorting then
          List.iter
            (fun id ->
              if not (ISet.mem id !sorting) then begin
                sorting := ISet.add id !sorting;
                changed := true
              end)
            info.defined)
      infos
  done;
  List.iter
    (fun info ->
      let sorted =
        info.sorts || List.exists (fun id -> ISet.mem id !sorting) info.locals_used
      in
      if not sorted then
        List.iter (fun (line, msg) -> flag ctx Checks.D3 line msg) info.hashtbl_uses)
    infos

(* --- U1: exports nothing else references -------------------------------- *)

(* The units whose references keep a lib/ export alive.  test/ counts: a
   seam that only tests reach is still a seam (doc/lint.md). *)
let u1_consumer_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* Module path [m] with the aliases and opens of its use site expanded, so
   [R] after [module R = Base_core.Runtime] reads [Base_core__Runtime]. *)
let normalize_module env_raw m =
  match env_of_summary env_raw with
  | Some env -> ( try Env.normalize_module_path None env m with _ -> m)
  | None -> m

let normalize env_raw = function
  | Path.Pdot (m, x) -> Path.Pdot (normalize_module env_raw m, x)
  | p -> p

(* Dotted key of a path with dune's library mangling undone: [Base_core],
   [Base_core__] and [Base_core__Runtime] spell the same unit. *)
let key parts =
  let rec unmangle s i =
    if i + 1 >= String.length s then [ s ]
    else if s.[i] = '_' && s.[i + 1] = '_' then
      String.sub s 0 i :: unmangle (String.sub s (i + 2) (String.length s - i - 2)) 0
    else unmangle s (i + 1)
  in
  String.concat "." (List.filter (( <> ) "") (List.concat_map (fun s -> unmangle s 0) parts))

(* Add to [refs] every value [cmt] names through a module path, and every
   module it uses whole (functor argument, [include], first-class pack),
   which keeps all that module's values alive.  Aliases and [open]s are
   resolved at their uses, not counted as uses themselves. *)
let references refs (cmt : Cmt_format.cmt_infos) =
  let add p = Hashtbl.replace refs (key (path_parts p)) () in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_letmodule (_, _, _, { mod_desc = Tmod_ident _; _ }, body) -> it.expr it body
          | Texp_ident ((Path.Pdot _ as p), _, _) -> add (normalize e.exp_env p)
          | _ -> default_iterator.expr it e);
      module_expr =
        (fun it me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> add (normalize_module me.mod_env p)
          | _ -> ());
          default_iterator.module_expr it me);
      module_binding =
        (fun it mb ->
          match mb.mb_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> default_iterator.module_binding it mb);
      open_declaration = (fun _ _ -> ());
    }
  in
  match cmt.cmt_annots with Implementation str -> it.structure it str | _ -> ()

(* (name, file, line) of each value in a unit's signature: its [.mli]
   when it has one, else everything its [.ml] binds at top level. *)
let exported_values ~rel ~cmt_path (cmt : Cmt_format.cmt_infos) =
  match (Cmt_format.read_cmt (Filename.remove_extension cmt_path ^ ".cmti")).cmt_annots with
  | Interface sg ->
    List.filter_map
      (fun (item : T.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
          Some (Ident.name vd.val_id, Filename.remove_extension rel ^ ".mli", line_of vd.val_loc)
        | _ -> None)
      sg.sig_items
  | _ | (exception _) -> (
    match cmt.cmt_annots with
    | Implementation str ->
      List.filter_map
        (function
          | Types.Sig_value (id, vd, _) -> Some (Ident.name id, rel, line_of vd.val_loc)
          | _ -> None)
        str.str_type
    | _ -> [])

(* U1: the values of the [(rel, cmt path, cmt)] units under the rule that
   are missing from [refs], the {!references} of every consumer. *)
let unused_exports refs units =
  List.concat_map
    (fun (rel, cmt_path, (cmt : Cmt_format.cmt_infos)) ->
      let unit_key = key [ cmt.cmt_modname ] in
      if (not (Checks.rule_applies Checks.U1 rel)) || Hashtbl.mem refs unit_key then []
      else
        List.filter_map
          (fun (name, file, line) ->
            if Hashtbl.mem refs (unit_key ^ "." ^ name) then None
            else
              Some
                {
                  Checks.file;
                  line;
                  rule = Checks.U1;
                  msg =
                    Printf.sprintf
                      "%s.%s is exported but no other unit references it; drop it from \
                       the interface"
                      (String.capitalize_ascii (Filename.chop_extension (Filename.basename rel)))
                      name;
                })
          (exported_values ~rel ~cmt_path cmt))
    units

(* --- entry points ---------------------------------------------------------- *)

let check_unit ~rel (cmt : Cmt_format.cmt_infos) =
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
    let ctx = { rel; findings = [] } in
    check_structure ctx str;
    List.sort Checks.compare_finding ctx.findings
  | _ -> []

(* [rel] is the repo-relative source path used for scoping/reporting;
   [path] is the .cmt file.  Used by the fixture tests; the CLI goes
   through {!scan}. *)
let check_cmt ~rel path =
  if not !initialized then init_load_path ~extra_dirs:[ Filename.dirname path ];
  match Cmt_format.read_cmt path with
  | exception e ->
    Error (Printf.sprintf "%s: cannot read cmt (%s)" path (Printexc.to_string e))
  | cmt -> Ok (check_unit ~rel cmt)

(* Collect [.cmt] files under [dir] (relative to [cmt_root]); unlike the
   source walker this descends into dune's dot-directories (.objs). *)
let cmt_files ~cmt_root dir =
  let result = ref [] in
  let rec walk rel =
    let abs = Filename.concat cmt_root rel in
    if Sys.file_exists abs && Sys.is_directory abs then begin
      let entries = Sys.readdir abs in
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          let rel' = rel ^ "/" ^ name in
          if Sys.is_directory (Filename.concat cmt_root rel') then walk rel'
          else if Filename.check_suffix name ".cmt" then result := rel' :: !result)
        entries
    end
  in
  walk dir;
  List.sort String.compare !result

(* [(source, cmt path, cmt)] of every implementation unit below
   [cmt_root] whose source lives under one of [dirs], sorted by source. *)
let units ~cmt_root dirs =
  List.concat_map (fun d -> List.map (Filename.concat cmt_root) (cmt_files ~cmt_root d)) dirs
  |> List.filter_map (fun path ->
         match Cmt_format.read_cmt path with
         | { cmt_sourcefile = Some src; cmt_annots = Implementation _; _ } as cmt
           when Filename.check_suffix src ".ml"
                && List.exists (fun d -> Checks.has_prefix ~prefix:(d ^ "/") src) dirs ->
           Some (src, path, cmt)
         | _ | (exception _) -> None)
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* The recorded compile-time load paths of [cmts].  Relative entries are
   relative to the compilation cwd, which dune records as the virtual
   /workspace_root; the real location is the build context we are
   scanning, i.e. [cmt_root]. *)
let load_dirs ~cmt_root cmts =
  List.concat_map
    (fun (cmt : Cmt_format.cmt_infos) ->
      List.filter_map
        (fun d ->
          if d = "" then None
          else if Filename.is_relative d then Some (Filename.concat cmt_root d)
          else Some d)
        cmt.cmt_loadpath)
    cmts

(* U1 over [(rel, cmt path)] pairs, each both exporter and consumer; used
   by the fixture tests, the CLI goes through {!scan}. *)
let check_exports pairs =
  if not !initialized then
    init_load_path ~extra_dirs:(List.map (fun (_, p) -> Filename.dirname p) pairs);
  let units = List.map (fun (rel, path) -> (rel, path, Cmt_format.read_cmt path)) pairs in
  let refs = Hashtbl.create 64 in
  List.iter (fun (_, _, cmt) -> references refs cmt) units;
  List.sort Checks.compare_finding (unused_exports refs units)

(* Check every compilation unit below [cmt_root] whose source lives under
   one of [dirs], and run U1 with the units under {!u1_consumer_dirs} as
   consumers.  Each unit is read under its own load path: executables in
   different directories each have a [Dune__exe] alias module.  Returns the
   findings and the number of units checked. *)
let scan ~cmt_root ~dirs =
  let in_dirs (src, _, _) = List.exists (fun d -> Checks.has_prefix ~prefix:(d ^ "/") src) dirs in
  let all = units ~cmt_root (List.sort_uniq String.compare (dirs @ u1_consumer_dirs)) in
  let refs = Hashtbl.create 4096 in
  let findings =
    List.concat_map
      (fun ((rel, _, cmt) as u) ->
        init_load_path ~extra_dirs:(load_dirs ~cmt_root [ cmt ]);
        references refs cmt;
        if in_dirs u then check_unit ~rel cmt else [])
      all
  in
  let checked = List.filter in_dirs all in
  (List.sort Checks.compare_finding (findings @ unused_exports refs checked), List.length checked)
