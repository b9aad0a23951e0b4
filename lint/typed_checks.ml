(* basecheck's rule walk: the determinism / Byzantine-robustness rules
   over the Typedtree stored in dune's [.cmt] files.  Every identifier is
   matched on the path it resolves to at its use site, with module aliases
   and [open]s expanded, so [module H = Hashtbl] or a local [open] hides
   nothing.

   - D1 flags every use of Stdlib [compare] and [Hashtbl.hash], and every
     bare or partially applied [min]/[max]/[(=)]/[(<>)].  A fully applied
     one is flagged when its instantiation type is not known-immediate
     (records, lists, strings, floats, functions, abstract types...);
     comparisons against a constant constructor ([x = None], [l = []])
     are exempt: tag inspection never descends.
   - D2 ([Unix], [Random], [Sys.time]), D4 ([Marshal], [Obj], [exit]),
     E1 ([failwith], [invalid_arg], [assert false]) and A1
     ([Xdr.encoder]) flag the resolved name wherever it appears.
   - D3 flags [Hashtbl.iter]/[fold] in a structure item that does not
     sort, crediting sort helpers across the items of a unit (a fixpoint
     over the value idents each item defines and mentions).
   - E2 flags a discarded [result]: [ignore e] or [let _ = e] where
     [e : (_, _) result] throws away a decode/validation error instead of
     handling it.
   - U1 flags a value a [lib/] unit exports that no other unit under
     {!u1_consumer_dirs} references.

   The taint pass (Typed_taint) checks the B rules over the same units;
   scoping and suppression are shared ({!Checks.rule_applies},
   lint/allowlist.sexp). *)

module T = Typedtree
open Typedtree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Count of expressions whose environment could not be reconstructed from
   the cmt summary (missing cmi on the load path...).  Such sites are
   skipped conservatively; the CLI surfaces a nonzero count so weakened
   runs are never silent. *)
let env_failures = ref 0

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

(* Module path [m] with the aliases and opens of its use site expanded, so
   [R] after [module R = Base_core.Runtime] reads [Base_core__Runtime]. *)
let normalize_module env_raw m =
  match env_of_summary env_raw with
  | Some env -> ( try Env.normalize_module_path None env m with _ -> m)
  | None -> m

let normalize env_raw = function
  | Path.Pdot (m, x) -> Path.Pdot (normalize_module env_raw m, x)
  | p -> p

(* [parts] with dune's library mangling undone: [Base_core], [Base_core__]
   and [Base_core__Runtime] spell the same unit. *)
let unmangle parts =
  let rec split s i =
    if i + 1 >= String.length s then [ s ]
    else if s.[i] = '_' && s.[i + 1] = '_' then
      String.sub s 0 i :: split (String.sub s (i + 2) (String.length s - i - 2)) 0
    else split s (i + 1)
  in
  List.filter (( <> ) "") (List.concat_map (fun s -> split s 0) parts)

let key parts = String.concat "." (unmangle parts)

(* The name [p] stands for at its use site: [H.fold] after
   [module H = Hashtbl] resolves to [Stdlib; Hashtbl; fold]. *)
let resolve env_raw p = unmangle (path_parts (normalize env_raw p))

let is_sort_fn = function
  | [ "Stdlib"; ("List" | "ListLabels"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ]
  | [ "Stdlib"; ("Array" | "ArrayLabels"); ("sort" | "stable_sort") ] ->
    true
  | _ -> false

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Cross-unit sort helpers cannot be resolved from one cmt; a name match is
   the documented compromise ([Replica.sorted_bindings]...). *)
let name_says_sorted name =
  match List.rev name with
  | last :: _ -> contains_substring (String.lowercase_ascii last) "sort"
  | [] -> false

(* The rule a resolved name trips wherever it appears, with its message. *)
let name_rule = function
  | [ "Stdlib"; "compare" ] ->
    Some (Checks.D1, "polymorphic compare; pass a typed comparator")
  | [ "Stdlib"; "Hashtbl"; "hash" ] -> Some (Checks.D1, "polymorphic Hashtbl.hash")
  | ("Unix" | "UnixLabels") :: _ ->
    Some (Checks.D2, "Unix.* is OS nondeterminism; use Sim_time / Prng")
  | "Stdlib" :: "Random" :: _ ->
    Some (Checks.D2, "Random.* is unseeded nondeterminism; use Base_util.Prng")
  | [ "Stdlib"; "Sys"; "time" ] ->
    Some (Checks.D2, "Sys.time is wall-clock nondeterminism; use Sim_time")
  | "Stdlib" :: "Marshal" :: _ -> Some (Checks.D4, "Marshal is unchecked (de)serialization")
  | "Stdlib" :: "Obj" :: _ :: _ -> Some (Checks.D4, "Obj.* defeats the type system")
  | [ "Stdlib"; "exit" ] -> Some (Checks.D4, "exit in library code kills the replica")
  | [ "Base_codec"; "Xdr"; "encoder" ] ->
    Some (Checks.A1, "fresh Xdr.encoder grows a new buffer per call; use Xdr.encode")
  | [ "Stdlib"; (("failwith" | "invalid_arg") as f) ] ->
    Some
      ( Checks.E1,
        Printf.sprintf "%s is reachable from message handlers; return Result/Option instead" f )
  | _ -> None

let op_name = function ("=" | "<>") as op -> Printf.sprintf "(%s)" op | f -> f

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
           (op_name name) (type_to_string ty))

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
  match e.exp_desc with
  | Texp_apply (({ exp_desc = Texp_ident _; _ } as fn), args) ->
    let operands = List.filter_map (fun (_, a) -> a) args in
    ident_checks ctx item ~operands fn;
    List.iter (fun a -> iter.Tast_iterator.expr iter a) operands
  | Texp_ident _ -> ident_checks ctx item ~operands:[] e
  | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ }, _)
    ->
    flag ctx Checks.E1 (line_of e.exp_loc)
      "assert false is reachable from message handlers; return Result/Option instead"
  | Texp_let (_, vbs, _) ->
    List.iter (discarded_result_binding ctx) vbs;
    Tast_iterator.default_iterator.expr iter e
  | _ -> Tast_iterator.default_iterator.expr iter e

(* Checks on an identifier, bare ([operands] empty) or applied to
   [operands]. *)
and ident_checks ctx item ~operands (e : T.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    let line = line_of e.exp_loc in
    (match p with
    | Path.Pident id -> item.locals_used <- id :: item.locals_used
    | _ -> ());
    let name = resolve e.exp_env p in
    if is_sort_fn name || name_says_sorted name then item.sorts <- true;
    (match name with
    | [ "Stdlib"; "Hashtbl"; (("iter" | "fold") as f) ] ->
      item.hashtbl_uses <-
        ( line,
          Printf.sprintf
            "Hashtbl.%s iterates in hash order; sort before emitting or allowlist" f )
        :: item.hashtbl_uses
    | [ "Stdlib"; "ignore" ] ->
      List.iter (fun a -> e2_check ctx a.exp_env line ~via:"ignore" a) operands
    | [ "Stdlib"; (("=" | "<>" | "min" | "max") as f) ] -> (
      (* Fully applied: judged at the instantiation type, the first
         operand's.  Bare or partially applied: always flagged. *)
      match operands with
      | a0 :: _ :: _ ->
        if not (List.exists const_constructor operands) then
          d1_check ctx a0.exp_env line f a0.exp_type
      | _ ->
        flag ctx Checks.D1 line
          (Printf.sprintf "polymorphic %s used as a value; use a typed comparison"
             (op_name f)))
    | _ -> ());
    match name_rule name with Some (rule, msg) -> flag ctx rule line msg | None -> ())
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

(* The units whose references keep a lib/ export alive: the system and
   the programs that drive it.  test/ is not among them: an export that
   only tests call is code the system does not run, so it leaves lib/, or
   its test reaches it through the behaviour that uses it (doc/lint.md). *)
let u1_consumer_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* Is a [(source, cmt path, cmt)] unit's source under one of [dirs]? *)
let in_dirs dirs (src, _, _) = List.exists (fun d -> Checks.has_prefix ~prefix:(d ^ "/") src) dirs

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
           when Filename.check_suffix src ".ml" && in_dirs dirs (src, path, cmt) ->
           Some (src, path, cmt)
         | _ | (exception _) -> None)
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* The [sources] (repo-relative [.ml] paths) that no unit of [units] was
   compiled from: code the lint would otherwise pass over in silence. *)
let uncompiled sources units =
  List.filter (fun f -> not (List.exists (fun (src, _, _) -> String.equal src f) units)) sources

(* Point the load path at what [cmts] were compiled against: every
   directory holding the [.cmi] files they reference (dune's .objs/byte
   dirs) plus the stdlib.  Relative entries of their recorded load paths
   are relative to the compilation cwd, which dune records as the virtual
   /workspace_root; the real location is the build context being scanned,
   i.e. [cmt_root]. *)
let use_load_path ~cmt_root cmts =
  let dirs =
    List.concat_map
      (fun (cmt : Cmt_format.cmt_infos) ->
        List.filter_map
          (fun d ->
            if d = "" then None
            else if Filename.is_relative d then Some (Filename.concat cmt_root d)
            else Some d)
          cmt.cmt_loadpath)
      cmts
  in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.sort_uniq String.compare dirs @ [ Config.standard_library ]);
  Envaux.reset_cache ()

let read_cmt path =
  match Cmt_format.read_cmt path with
  | cmt -> Ok cmt
  | exception e -> Error (Printf.sprintf "%s: cannot read cmt (%s)" path (Printexc.to_string e))

(* [rel] is the repo-relative source path used for scoping/reporting;
   [path] is the .cmt file.  Used by the fixture tests; the CLI goes
   through {!scan}. *)
let check_cmt ~cmt_root ~rel path =
  Result.map
    (fun cmt ->
      use_load_path ~cmt_root [ cmt ];
      check_unit ~rel cmt)
    (read_cmt path)

(* U1 over [(rel, cmt path)] pairs, each an exporter and, when under
   {!u1_consumer_dirs}, a consumer; used by the fixture tests, the CLI goes
   through {!scan}. *)
let check_exports ~cmt_root pairs =
  let units = List.map (fun (rel, path) -> (rel, path, Cmt_format.read_cmt path)) pairs in
  use_load_path ~cmt_root (List.map (fun (_, _, cmt) -> cmt) units);
  let refs = Hashtbl.create 64 in
  List.iter
    (fun ((_, _, cmt) as u) -> if in_dirs u1_consumer_dirs u then references refs cmt)
    units;
  List.sort Checks.compare_finding (unused_exports refs units)

(* Check the [units] whose source lives under one of [dirs], and run U1
   with every unit under {!u1_consumer_dirs} as a consumer (the CLI passes
   the units of [dirs] and {!u1_consumer_dirs}).  Each unit is read under
   its own load path: executables in different directories each have a
   [Dune__exe] alias module. *)
let scan ~cmt_root ~dirs units =
  let refs = Hashtbl.create 4096 in
  let findings =
    List.concat_map
      (fun ((rel, _, cmt) as u) ->
        use_load_path ~cmt_root [ cmt ];
        if in_dirs u1_consumer_dirs u then references refs cmt;
        if in_dirs dirs u then check_unit ~rel cmt else [])
      units
  in
  List.sort Checks.compare_finding
    (findings @ unused_exports refs (List.filter (in_dirs dirs) units))
