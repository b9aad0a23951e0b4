(* basecheck taint pass: an interprocedural wire→trust dataflow pass
   over the Typedtree stored in dune's [.cmt] files.

   The paper's trust boundary is a dataflow property: every value a
   Byzantine peer controls (decoded message fields, raw wire payloads)
   must pass a bounds check or a MAC verification before it reaches
   anything the replica trusts — allocation sizes, loop bounds, timers,
   partition-tree coordinates, protocol watermarks.  This pass makes the
   property machine-checked:

   - Sources: results of [Message.decode_body] and every [Xdr.read_*],
     plus registered parameters (e.g. [Replica.receive]'s envelope,
     [State_transfer.serve]'s request) — see lint/sanitizers.sexp.
   - Propagation: through lets, tuples/records/constructors and field
     projections, match bindings, arithmetic, and function calls via
     per-function summaries computed to fixpoint over the call graph.
   - Sanitizers: dominating comparisons ([if n < 0 || n > cap then
     reject]), [min] against a clean bound, [land]/[mod] masking,
     measured lengths ([String.length] of materialized data), guard
     helpers that raise on violation ([Xdr.need], [Invariant.require]),
     registered predicates ([Replica.in_window]), and hash-table
     membership of a locally-produced key.
   - Rules: B1 (tainted allocation size / byte range / loop bound),
     B2 (replica state mutated before MAC verification on a handler
     path), B3 (tainted value into a registered trusted sink).

   A taint is two bits — "still needs an upper bound" and "still needs a
   lower bound" — so one-sided guards ([off >= 0]) discharge exactly the
   direction they check, plus the set of enclosing-function parameters
   the value depends on (for summaries).  A conditional sink ("param i of
   f reaches Bytes.create") is recorded on the parameter's owner and
   instantiated at every call site, which is what makes the pass
   interprocedural; [min]/[max] are asymmetric ([min x cap] bounds above,
   [max x floor] does not) so claimed maxima folded with [max] stay
   tainted.  Known blind spots (heap laundering through mutable state,
   recursion bounds, implicit flows) are documented in doc/lint.md and
   pinned by test/lint/taint_blind.ml. *)

module T = Typedtree
open Typedtree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Shared with the rule walk: load-path bootstrap and env
   reconstruction (including its [env_failures] accounting). *)
let env_of_summary = Typed_checks.env_of_summary

let path_parts = Typed_checks.path_parts

(* --- sanitizer / source / sink registry ------------------------------------ *)

type name_pat = { np_module : string; np_name : string option; np_prefix : string option }

type sanitizer_kind =
  | San_clean  (* call result carries no taint (e.g. digests) *)
  | San_guard of int  (* raises unless arg [i] is in bounds: cleans its idents *)
  | San_require of int  (* raises unless condition arg [i] holds: refines like [if] *)
  | San_predicate of int  (* bool test: the then-branch cleans arg [i]'s idents *)
  | San_validator  (* returns a validated Result/Option: result is clean *)

type sink_target =
  | Sk_fn of name_pat
  | Sk_field of string  (* method-style call through a record field *)
  | Sk_setfield of string  (* assignment to a named mutable field *)

type sink_spec = {
  sk_target : sink_target;
  sk_label : string option;  (* restrict to the argument with this label *)
  sk_pos : int option;  (* restrict to the Nth positional argument *)
  sk_rule : Checks.rule;
  sk_msg : string;
}

type registry = {
  rg_sources : name_pat list;
  rg_param_sources : (string * string * int) list;  (* module, function, param idx *)
  rg_sanitizers : (name_pat * sanitizer_kind) list;
  rg_verifiers : name_pat list;
  rg_benign : name_pat list;
      (* observability-only mutators (profiling probes, trace hooks): their
         writes are not replica state, so they neither count for B2's
         verify-before-mutate ordering nor taint their caller's summary *)
  rg_sinks : sink_spec list;
}

let empty_registry =
  {
    rg_sources = [];
    rg_param_sources = [];
    rg_sanitizers = [];
    rg_verifiers = [];
    rg_benign = [];
    rg_sinks = [];
  }

let parse_entry rg = function
  | Checks.Sexp_list (Checks.Atom kind :: fields) -> (
    let f k = Checks.field k fields in
    let pat () =
      match f "module" with
      | None -> Error "registry: entry needs (module M)"
      | Some m -> Ok { np_module = m; np_name = f "name"; np_prefix = f "prefix" }
    in
    let int_field k =
      match f k with
      | None -> Error (Printf.sprintf "registry: %s entry needs (%s N)" kind k)
      | Some s -> (
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "registry: bad integer %S for (%s ...)" s k))
    in
    match kind with
    | "source" -> (
      match pat () with
      | Error e -> Error e
      | Ok p -> (
        match f "param" with
        | None -> Ok { rg with rg_sources = p :: rg.rg_sources }
        | Some _ -> (
          match (p.np_name, int_field "param") with
          | Some name, Ok i ->
            Ok { rg with rg_param_sources = (p.np_module, name, i) :: rg.rg_param_sources }
          | None, _ -> Error "registry: a (param N) source needs (name ...)"
          | _, Error e -> Error e)))
    | "sanitizer" -> (
      match pat () with
      | Error e -> Error e
      | Ok p -> (
        let kind_res =
          match f "kind" with
          | Some "clean" -> Ok San_clean
          | Some "validator" -> Ok San_validator
          | Some "guard" -> Result.map (fun i -> San_guard i) (int_field "arg")
          | Some "require" -> Result.map (fun i -> San_require i) (int_field "arg")
          | Some "predicate" -> Result.map (fun i -> San_predicate i) (int_field "arg")
          | Some k -> Error (Printf.sprintf "registry: unknown sanitizer kind %S" k)
          | None -> Error "registry: sanitizer needs (kind ...)"
        in
        match kind_res with
        | Error e -> Error e
        | Ok k -> Ok { rg with rg_sanitizers = (p, k) :: rg.rg_sanitizers }))
    | "verifier" -> (
      match pat () with
      | Error e -> Error e
      | Ok p -> Ok { rg with rg_verifiers = p :: rg.rg_verifiers })
    | "benign" -> (
      match pat () with
      | Error e -> Error e
      | Ok p -> Ok { rg with rg_benign = p :: rg.rg_benign })
    | "sink" -> (
      let target =
        match (f "field", f "setfield") with
        | Some fd, None -> Ok (Sk_field fd)
        | None, Some fd -> Ok (Sk_setfield fd)
        | Some _, Some _ -> Error "registry: sink has both (field ...) and (setfield ...)"
        | None, None -> Result.map (fun p -> Sk_fn p) (pat ())
      in
      match target with
      | Error e -> Error e
      | Ok tgt -> (
        match Option.bind (f "rule") Checks.rule_of_name with
        | None -> Error "registry: sink needs (rule B1|B2|B3)"
        | Some rule ->
          let msg =
            match f "msg" with Some m -> m | None -> "wire-tainted value reaches a trusted sink"
          in
          match Option.map int_of_string_opt (f "pos") with
          | Some None -> Error "registry: bad integer for (pos ...)"
          | (None | Some (Some _)) as pos ->
            Ok
              {
                rg with
                rg_sinks =
                  {
                    sk_target = tgt;
                    sk_label = f "arg_label";
                    sk_pos = Option.join pos;
                    sk_rule = rule;
                    sk_msg = msg;
                  }
                  :: rg.rg_sinks;
              }))
    | k -> Error (Printf.sprintf "registry: unknown entry kind %S" k))
  | Checks.Sexp_list [] -> Error "registry: empty entry"
  | Checks.Atom a -> Error (Printf.sprintf "registry: expected a list, got atom %S" a)
  | Checks.Sexp_list (Checks.Sexp_list _ :: _) -> Error "registry: entry must start with a kind atom"

let parse_registry src =
  match Checks.read_sexps src with
  | exception Checks.Sexp_error e -> Error e
  | sexps ->
    List.fold_left
      (fun acc s -> Result.bind acc (fun rg -> parse_entry rg s))
      (Ok empty_registry) sexps

let load_registry path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "%s: no such file" path)
  else begin
    let ic = open_in_bin path in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match parse_registry src with
    | Ok rg -> Ok rg
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  end

(* --- the taint lattice ------------------------------------------------------ *)

module IMap = Map.Make (Int)

(* [wu]/[wl]: the value may still exceed any upper / fall below any lower
   bound an attacker picks, from a source *inside* the current function.
   [deps]: parameters (by global id) of enclosing functions the value is
   derived from, each with its own direction pair — "if the caller's
   argument still lacks an upper/lower bound, so does this value".  A
   dominating [x >= 0] guard therefore discharges the lower direction of
   both planes at once, which is what lets call sites instantiate exactly
   the unproven directions. *)
type taint = { wu : bool; wl : bool; deps : (bool * bool) IMap.t }

let clean = { wu = false; wl = false; deps = IMap.empty }

let wire_full = { wu = true; wl = true; deps = IMap.empty }

let is_wire t = t.wu || t.wl

(* Could the value lack an upper (resp. lower) bound under *some* caller? *)
let may_wu t = t.wu || IMap.exists (fun _ (du, _) -> du) t.deps

let may_wl t = t.wl || IMap.exists (fun _ (_, dl) -> dl) t.deps

let may_wire t = may_wu t || may_wl t

let norm_deps deps = IMap.filter (fun _ (du, dl) -> du || dl) deps

let union_deps a b =
  IMap.union (fun _ (au, al) (bu, bl) -> Some (au || bu, al || bl)) a b

let join a b =
  { wu = a.wu || b.wu; wl = a.wl || b.wl; deps = union_deps a.deps b.deps }

(* Discharge a direction across both planes (global bits and every dep). *)
let mask ~keep_wu ~keep_wl t =
  {
    wu = t.wu && keep_wu;
    wl = t.wl && keep_wl;
    deps = norm_deps (IMap.map (fun (du, dl) -> (du && keep_wu, dl && keep_wl)) t.deps);
  }

let taint_equal a b = a.wu = b.wu && a.wl = b.wl && IMap.equal ( = ) a.deps b.deps

module IdMap = Map.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

type venv = taint IdMap.t

(* --- function summaries ----------------------------------------------------- *)

type cond_sink = {
  cs_pid : int;  (* the parameter whose wire-taint fires this sink *)
  cs_wu : bool;  (* fires on a value still lacking an upper bound *)
  cs_wl : bool;  (* ... or a lower bound *)
  cs_rule : Checks.rule;
  cs_file : string;  (* where the underlying sink lives (maybe another unit) *)
  cs_line : int;
  cs_msg : string;
}

let cs_equal a b =
  a.cs_pid = b.cs_pid && a.cs_wu = b.cs_wu && a.cs_wl = b.cs_wl && a.cs_rule = b.cs_rule
  && String.equal a.cs_file b.cs_file && a.cs_line = b.cs_line && String.equal a.cs_msg b.cs_msg

type summary = {
  s_params : int list;  (* global param ids, declaration order *)
  s_labels : string list;  (* "" for positional *)
  mutable s_result : taint;  (* deps refer to params (own or captured) *)
  mutable s_csinks : cond_sink list;
  mutable s_verifies : bool;  (* calls a MAC/digest verifier somewhere *)
  mutable s_mutates : bool;  (* mutates reachable state somewhere *)
}

type state = {
  registry : registry;
  mutable flagging : bool;  (* pass 2: emit findings; pass 1: build summaries *)
  mutable changed : bool;
  global : (string * string, summary) Hashtbl.t;  (* (module, fn) for cross-unit calls *)
  locals : (string * Ident.t, summary) Hashtbl.t;
      (* every let-bound function, by file and ident: idents of two units
         can share a name and a stamp *)
  owner : (int, summary * int) Hashtbl.t;  (* param id -> (owner, position) *)
  mutable next_param : int;
  mutable findings : Checks.finding list;
  mutable cur : summary option;  (* function currently being analyzed *)
  mutable cur_rel : string;
  mutable cur_unit : string;  (* module name of the unit being walked *)
}

let new_state registry =
  {
    registry;
    flagging = false;
    changed = false;
    global = Hashtbl.create 256;
    locals = Hashtbl.create 256;
    owner = Hashtbl.create 512;
    next_param = 0;
    findings = [];
    cur = None;
    cur_rel = "";
    cur_unit = "";
  }

let add_finding st ~file ~line ~rule ~msg =
  if Checks.rule_applies rule file then
    st.findings <- { Checks.file; line; rule; msg } :: st.findings

let add_csink st s cs =
  if not (List.exists (cs_equal cs) s.s_csinks) then begin
    s.s_csinks <- cs :: s.s_csinks;
    st.changed <- true
  end

let update_result st s t =
  let j = join s.s_result t in
  if not (taint_equal j s.s_result) then begin
    s.s_result <- j;
    st.changed <- true
  end

let mark_verifies st = function
  | Some s when not s.s_verifies ->
    s.s_verifies <- true;
    st.changed <- true
  | _ -> ()

let mark_mutates st = function
  | Some s when not s.s_mutates ->
    s.s_mutates <- true;
    st.changed <- true
  | _ -> ()

(* The universal sink primitive: wire taint (pass 2) flags; parameter
   dependence (pass 1) records a conditional sink on each parameter's
   owning function — restricted to the directions still unproven locally —
   which call sites then instantiate. *)
let sink_check st ~need_wu ~need_wl ~rule ~file ~line ~msg t =
  if st.flagging && ((need_wu && t.wu) || (need_wl && t.wl)) then
    add_finding st ~file ~line ~rule ~msg;
  if not st.flagging then
    IMap.iter
      (fun pid (du, dl) ->
        let cs_wu = need_wu && du and cs_wl = need_wl && dl in
        if cs_wu || cs_wl then
          match Hashtbl.find_opt st.owner pid with
          | Some (s, _) ->
            add_csink st s
              { cs_pid = pid; cs_wu; cs_wl; cs_rule = rule; cs_file = file; cs_line = line;
                cs_msg = msg }
          | None -> ())
      t.deps

(* --- name resolution -------------------------------------------------------- *)

(* "Base_bft__Message" (dune's wrapped-library mangling) -> "Message". *)
let base_module m =
  let n = String.length m in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if m.[i] = '_' && m.[i + 1] = '_' then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i < n -> String.sub m i (n - i)
  | _ -> m

(* Resolve a value path to (innermost module, name), expanding module
   aliases ([module M = Message]) through the typing env so registry
   entries match however the call site abbreviates. *)
let resolve env_raw (p : Path.t) =
  match List.rev (path_parts (Typed_checks.normalize env_raw p)) with
  | [] -> (None, "")
  | [ x ] -> (None, x)
  | x :: m :: _ -> (Some (base_module m), x)

let mdl_matches st pat_mdl = function
  | Some m -> String.equal m pat_mdl
  | None -> String.equal st.cur_unit pat_mdl

let pat_matches st pat (mdl, name) =
  mdl_matches st pat.np_module mdl
  && (match pat.np_name with Some n -> String.equal n name | None -> true)
  && match pat.np_prefix with
     | Some pre -> Checks.has_prefix ~prefix:pre name
     | None -> true

let find_sanitizer st key =
  List.find_map
    (fun (p, k) -> if pat_matches st p key then Some k else None)
    st.registry.rg_sanitizers

let is_source st key = List.exists (fun p -> pat_matches st p key) st.registry.rg_sources

let is_verifier st key = List.exists (fun p -> pat_matches st p key) st.registry.rg_verifiers

let is_benign st key = List.exists (fun p -> pat_matches st p key) st.registry.rg_benign

let fn_sinks st key =
  List.filter
    (fun sk -> match sk.sk_target with Sk_fn p -> pat_matches st p key | _ -> false)
    st.registry.rg_sinks

let field_sinks st fname =
  List.filter
    (fun sk ->
      match sk.sk_target with Sk_field f -> String.equal f fname | _ -> false)
    st.registry.rg_sinks

let setfield_sinks st fname =
  List.filter
    (fun sk ->
      match sk.sk_target with Sk_setfield f -> String.equal f fname | _ -> false)
    st.registry.rg_sinks

(* --- builtin classification ------------------------------------------------- *)

let is_stdlib = function Some "Stdlib" | None -> true | Some _ -> false

(* Measured sizes of materialized data are trusted: the bytes exist, so
   their length cannot be an attacker's *claim*.  (A decoded length
   *prefix* is tainted; [String.length] of the decoded payload is not.) *)
let clean_result (mdl, name) =
  match (mdl, name) with
  | ( Some ("String" | "Bytes" | "Array" | "List" | "Queue" | "Hashtbl" | "Buffer"),
      "length" ) ->
    true
  | Some "Hashtbl", ("find" | "find_opt" | "find_all" | "mem" | "hash") -> true
  | Some "Queue", ("take" | "take_opt" | "peek" | "peek_opt" | "pop" | "top" | "is_empty")
    ->
    true
  | _ -> false

(* B1 sinks: (positional arg indices, description).  Both taint directions
   fire: a huge size allocates, a negative one raises mid-handler. *)
let b1_sink (mdl, name) =
  match (mdl, name) with
  | Some "Bytes", ("create" | "make") | Some "String", "make" -> Some ([ 0 ], "allocation size")
  | Some "Array", ("make" | "init" | "create_float") -> Some ([ 0 ], "allocation size")
  | Some "List", "init" -> Some ([ 0 ], "allocation size")
  | Some "Buffer", "create" -> Some ([ 0 ], "allocation size")
  | Some ("String" | "Bytes"), "sub" | Some "Bytes", "sub_string" ->
    Some ([ 1; 2 ], "byte-range position/length")
  | Some "Bytes", ("blit" | "blit_string") | Some "String", "blit" ->
    Some ([ 1; 3; 4 ], "byte-range position/length")
  | Some "Bytes", "fill" -> Some ([ 1; 2 ], "byte-range position/length")
  | _ -> None

let mutation_prim (mdl, name) =
  match (mdl, name) with
  | _, (":=" | "incr" | "decr") when is_stdlib mdl -> true
  | Some "Hashtbl", ("replace" | "add" | "remove" | "reset" | "clear" | "filter_map_inplace")
    ->
    true
  | Some "Queue", ("add" | "push" | "pop" | "take" | "clear" | "transfer") -> true
  | Some "Array", ("set" | "fill" | "blit" | "unsafe_set") -> true
  | Some "Bytes", ("set" | "fill" | "blit" | "blit_string" | "unsafe_set") -> true
  | _ -> false

let diverging_call (mdl, name) =
  match (mdl, name) with
  | _, ("raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit") when is_stdlib mdl
    ->
    true
  | Some "Invariant", "violated" -> true
  | _ -> false

(* --- expression analysis ---------------------------------------------------- *)

let lookup env id = match IdMap.find_opt id env with Some t -> t | None -> clean

let clear_dir ~upper env id =
  match IdMap.find_opt id env with
  | None -> env
  | Some t ->
    IdMap.add id (mask ~keep_wu:(not upper) ~keep_wl:upper t) env

let clear_both env id = IdMap.add id clean env

let as_ident (e : T.expression) =
  match e.exp_desc with Texp_ident (Path.Pident id, _, _) -> Some id | _ -> None

(* All value idents occurring free in an expression — the targets of a
   guard-style sanitizer ([Xdr.need d (len + pad)] vouches for [len]). *)
let expr_idents (e : T.expression) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

let pat_value_arg : computation general_pattern -> value general_pattern option =
 fun p -> match p.pat_desc with Tpat_value v -> Some (v :> value general_pattern) | _ -> None

let bind_pattern : type k. venv -> k general_pattern -> taint -> venv =
 fun env pat t ->
  List.fold_left (fun env id -> IdMap.add id t env) env (T.pat_bound_idents pat)

let rec diverges (e : T.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_env; _ }, _) ->
    diverging_call (resolve exp_env p)
  | Texp_sequence (_, e2) -> diverges e2
  | Texp_let (_, _, body) -> diverges body
  | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ }, _) ->
    true
  | _ -> false

(* Split [fun a b -> body] into parameter patterns and the body; a final
   multi-case [function] contributes one more (pattern-matched) param. *)
let rec split_params (e : T.expression) acc =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; arg_label; _ } ->
    split_params c_rhs ((arg_label, `Pat c_lhs) :: acc)
  | Texp_function { cases; arg_label; _ } -> (List.rev ((arg_label, `Cases cases) :: acc), None)
  | _ -> (List.rev acc, Some e)

let label_name = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled l | Asttypes.Optional l -> l

(* Map call-site arguments onto callee parameter positions: labels match
   by name, positional arguments fill the remaining slots in order. *)
let map_args labels (args : (Asttypes.arg_label * taint) list) =
  let n = List.length labels in
  let slots = Array.make n clean in
  let filled = Array.make n false in
  let labels = Array.of_list labels in
  List.iter
    (fun (lbl, t) ->
      let name = label_name lbl in
      let idx =
        if name <> "" then
          let found = ref None in
          Array.iteri (fun i l -> if !found = None && (not filled.(i)) && l = name then found := Some i) labels;
          !found
        else begin
          let found = ref None in
          Array.iteri (fun i l -> if !found = None && (not filled.(i)) && l = "" then found := Some i) labels;
          !found
        end
      in
      match idx with
      | Some i ->
        slots.(i) <- t;
        filled.(i) <- true
      | None -> ())
    args;
  slots

let rec analyze st env (e : T.expression) : taint =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> lookup env id
  | Texp_ident _ -> clean
  | Texp_constant _ -> clean
  | Texp_let (_, vbs, body) ->
    let env' =
      List.fold_left
        (fun env' (vb : T.value_binding) ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
            analyze_function st ~key:None id vb.vb_expr env;
            IdMap.add id clean env'
          | _ ->
            let t = analyze st env vb.vb_expr in
            bind_pattern env' vb.vb_pat t)
        env vbs
    in
    analyze st env' body
  | Texp_function _ ->
    (* A closure not bound to a name (callback in a record, etc.): walk the
       body so sinks on captured values are still seen; unknown callers
       mean its parameters are unjudgeable — treat them as clean. *)
    let params, body = split_params e [] in
    let env' =
      List.fold_left
        (fun env' (_, p) ->
          match p with
          | `Pat pat -> bind_pattern env' pat clean
          | `Cases _ -> env')
        env params
    in
    (match body with
    | Some b -> ignore (analyze st env' b)
    | None -> (
      match List.rev params with
      | (_, `Cases cases) :: _ ->
        List.iter
          (fun (c : value case) ->
            let envc = bind_pattern env' c.c_lhs clean in
            Option.iter (fun g -> ignore (analyze st envc g)) c.c_guard;
            ignore (analyze st envc c.c_rhs))
          cases
      | _ -> ()));
    clean
  | Texp_apply (fn, args) -> analyze_apply st env e fn args
  | Texp_match (scrut, cases, _) ->
    let ts = analyze st env scrut in
    let results =
      List.map
        (fun (c : computation case) ->
          let envc = bind_pattern env c.c_lhs ts in
          let envc = member_refine st envc scrut c.c_lhs in
          let envc = const_refine envc scrut c.c_lhs in
          let envc =
            match c.c_guard with
            | Some g ->
              let envt, _ = refine st envc g in
              envt
            | None -> envc
          in
          analyze st envc c.c_rhs)
        cases
    in
    List.fold_left join clean results
  | Texp_try (body, cases) ->
    let t = analyze st env body in
    List.fold_left
      (fun acc (c : value case) ->
        let envc = bind_pattern env c.c_lhs clean in
        join acc (analyze st envc c.c_rhs))
      t cases
  | Texp_tuple es | Texp_array es -> List.fold_left (fun acc x -> join acc (analyze st env x)) clean es
  | Texp_construct (_, _, es) ->
    List.fold_left (fun acc x -> join acc (analyze st env x)) clean es
  | Texp_variant (_, eo) -> ( match eo with Some x -> analyze st env x | None -> clean)
  | Texp_record { fields; extended_expression; _ } ->
    let base =
      match extended_expression with Some x -> analyze st env x | None -> clean
    in
    Array.fold_left
      (fun acc (_, def) ->
        match def with
        | Overridden (_, x) -> join acc (analyze st env x)
        | Kept _ -> acc)
      base fields
  | Texp_field (obj, _, _) -> analyze st env obj
  | Texp_setfield (obj, _, lbl, v) ->
    ignore (analyze st env obj);
    let tv = analyze st env v in
    mark_mutates st st.cur;
    List.iter
      (fun sk ->
        sink_check st ~need_wu:true ~need_wl:true ~rule:sk.sk_rule ~file:st.cur_rel
          ~line:(line_of e.exp_loc) ~msg:sk.sk_msg tv)
      (setfield_sinks st lbl.lbl_name);
    clean
  | Texp_ifthenelse (c, th, el) ->
    ignore (analyze st env c);
    let envt, envf = refine st env c in
    let t1 = analyze st envt th in
    let t2 = match el with Some x -> analyze st envf x | None -> clean in
    join t1 t2
  | Texp_sequence (e1, e2) ->
    ignore (analyze st env e1);
    let env' = seq_refine st env e1 in
    analyze st env' e2
  | Texp_while (c, body) ->
    let tc = analyze st env c in
    sink_check st ~need_wu:true ~need_wl:true ~rule:Checks.B1 ~file:st.cur_rel
      ~line:(line_of e.exp_loc)
      ~msg:"wire-tainted while-loop condition; bound the loop by validated local state" tc;
    ignore (analyze st env body);
    clean
  | Texp_for (id, _, lo, hi, dir, body) ->
    let tlo = analyze st env lo in
    let thi = analyze st env hi in
    let msg = "wire-tainted loop bound; clamp the iteration count against a local window" in
    let line = line_of e.exp_loc in
    (match dir with
    | Upto ->
      sink_check st ~need_wu:false ~need_wl:true ~rule:Checks.B1 ~file:st.cur_rel ~line ~msg tlo;
      sink_check st ~need_wu:true ~need_wl:false ~rule:Checks.B1 ~file:st.cur_rel ~line ~msg thi
    | Downto ->
      sink_check st ~need_wu:true ~need_wl:false ~rule:Checks.B1 ~file:st.cur_rel ~line ~msg tlo;
      sink_check st ~need_wu:false ~need_wl:true ~rule:Checks.B1 ~file:st.cur_rel ~line ~msg thi);
    ignore (analyze st (IdMap.add id clean env) body);
    clean
  | Texp_assert (cond, _) ->
    ignore (analyze st env cond);
    clean
  | Texp_lazy x -> analyze st env x
  | Texp_open (_, body) -> analyze st env body
  | Texp_letmodule (_, _, _, _, body) -> analyze st env body
  | Texp_letexception (_, body) -> analyze st env body
  | _ ->
    (* Exotic nodes: walk children with the current env so sinks inside are
       still visited; the node's own value is treated as clean. *)
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ child -> ignore (analyze st env child));
      }
    in
    Tast_iterator.default_iterator.expr it e;
    clean

(* --- calls ------------------------------------------------------------------ *)

and analyze_apply st env (e : T.expression) fn args =
  let arg_exprs = List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args in
  let is_lambda (x : T.expression) =
    match x.exp_desc with Texp_function _ -> true | _ -> false
  in
  (* Evaluate non-function arguments first; lambdas are analyzed below with
     their parameters bound to the other arguments' taint (HOF elements). *)
  let arg_taints =
    List.map
      (fun (l, (a : T.expression)) ->
        if is_lambda a then (l, a, clean) else (l, a, analyze st env a))
      arg_exprs
  in
  let non_fn_join =
    List.fold_left (fun acc (_, a, t) -> if is_lambda a then acc else join acc t) clean
      arg_taints
  in
  List.iter
    (fun (_, (a : T.expression), _) -> if is_lambda a then analyze_hof_lambda st env a non_fn_join)
    arg_taints;
  (* A named function passed the same way ([Xdr.encode enc_body body]) runs
     over those arguments too: instantiate its summary with every parameter
     bound to their taint. *)
  List.iter
    (fun (_, (a : T.expression), _) ->
      match a.exp_desc with
      | Texp_ident (p, _, _) -> (
        let key = resolve a.exp_env p in
        let local = match p with Path.Pident id -> Hashtbl.find_opt st.locals (st.cur_rel, id) | _ -> None in
        match find_summary st key local with
        | Some s ->
          let as_arg l = ((if l = "" then Asttypes.Nolabel else Asttypes.Labelled l), a, non_fn_join) in
          ignore (summary_call st key local (List.map as_arg s.s_labels) non_fn_join)
        | None -> ())
      | _ -> ())
    arg_taints;
  let positional =
    List.filter_map
      (fun (l, a, t) -> match l with Asttypes.Nolabel -> Some (a, t) | _ -> None)
      arg_taints
  in
  let pos_taint i = match List.nth_opt positional i with Some (_, t) -> t | None -> clean in
  let line = line_of e.exp_loc in
  (* Apply a registered sink to this argument list, honoring its optional
     label / positional-index restriction. *)
  let apply_sink sk =
    let pos = ref 0 in
    List.iter
      (fun (l, _a, t) ->
        let this_pos = match l with Asttypes.Nolabel -> Some !pos | _ -> None in
        (match l with Asttypes.Nolabel -> incr pos | _ -> ());
        let applies =
          match (sk.sk_label, sk.sk_pos) with
          | Some want, _ -> String.equal (label_name l) want
          | None, Some p -> this_pos = Some p
          | None, None -> true
        in
        if applies then
          sink_check st ~need_wu:true ~need_wl:true ~rule:sk.sk_rule ~file:st.cur_rel ~line
            ~msg:sk.sk_msg t)
      arg_taints
  in
  match fn.exp_desc with
  | Texp_field (obj, _, lbl) ->
    ignore (analyze st env obj);
    (* Method-style call through a record field (net.set_timer, the service
       wrapper's get_obj/put_objs): registered field sinks apply. *)
    List.iter apply_sink (field_sinks st lbl.lbl_name);
    non_fn_join
  | Texp_ident (p, _, _) -> (
    let key = resolve fn.exp_env p in
    if is_verifier st key then begin
      mark_verifies st st.cur;
      clean
    end
    else if is_source st key then wire_full
    else if is_benign st key then clean
    else begin
      if mutation_prim key then mark_mutates st st.cur;
      (* Registered function sinks (Partition_tree coordinates, Objrepo
         indices...). *)
      List.iter apply_sink (fn_sinks st key);
      (* Builtin B1 sinks. *)
      (match b1_sink key with
      | Some (idxs, what) ->
        List.iter
          (fun i ->
            sink_check st ~need_wu:true ~need_wl:true ~rule:Checks.B1 ~file:st.cur_rel ~line
              ~msg:
                (Printf.sprintf
                   "wire-tainted int reaches %s as a %s; clamp or reject it first"
                   (match key with Some m, n -> m ^ "." ^ n | None, n -> n)
                   what)
              (pos_taint i))
          idxs
      | None -> ());
      let local =
        match p with Path.Pident id -> Hashtbl.find_opt st.locals (st.cur_rel, id) | _ -> None
      in
      match find_sanitizer st key with
      | Some (San_clean | San_validator) -> clean
      | Some (San_guard _ | San_require _) -> clean (* env effect handled in sequences *)
      | Some (San_predicate _) -> non_fn_join (* bool result; refinement at the if *)
      | None -> builtin_or_summary st env key local positional arg_taints non_fn_join
    end)
  | _ ->
    ignore (analyze st env fn);
    non_fn_join

and builtin_or_summary st _env key local positional arg_taints non_fn_join =
  let pos_taint i = match List.nth_opt positional i with Some (_, t) -> t | None -> clean in
  let mdl, name = key in
  if clean_result key then clean
  else if local <> None then summary_call st key local arg_taints non_fn_join
  else if is_stdlib mdl then begin
    match name with
    | "min" ->
      (* [min x cap] is bounded above as soon as either operand is; below
         it is as bad as the worse operand. *)
      let a = pos_taint 0 and b = pos_taint 1 in
      join
        (mask ~keep_wu:b.wu ~keep_wl:true a)
        (mask ~keep_wu:a.wu ~keep_wl:true b)
    | "max" ->
      let a = pos_taint 0 and b = pos_taint 1 in
      join
        (mask ~keep_wu:true ~keep_wl:b.wl a)
        (mask ~keep_wu:true ~keep_wl:a.wl b)
    | "abs" ->
      let a = pos_taint 0 in
      {
        wu = a.wu || a.wl;
        wl = false;
        deps = IMap.map (fun (du, dl) -> (du || dl, false)) a.deps;
      }
    | "~-" ->
      let a = pos_taint 0 in
      { wu = a.wl; wl = a.wu; deps = IMap.map (fun (du, dl) -> (dl, du)) a.deps }
    | "land" ->
      let a = pos_taint 0 and b = pos_taint 1 in
      if (not (is_wire a)) || not (is_wire b) then clean else join a b
    | "mod" ->
      (* [x mod k] with a non-wire modulus is bounded both ways by [k]. *)
      let b = pos_taint 1 in
      if not (is_wire b) then clean else join (pos_taint 0) b
    | "ignore" -> clean
    | _ -> summary_call st key None arg_taints non_fn_join
  end
  else summary_call st key None arg_taints non_fn_join

and find_summary st key local =
  match local with
  | Some s -> Some s
  | None -> (
    match key with
    | None, n -> Hashtbl.find_opt st.global (st.cur_unit, n)
    | Some m, n -> Hashtbl.find_opt st.global (m, n))

and summary_call st key local arg_taints non_fn_join =
  match find_summary st key local with
  | None -> non_fn_join
  | Some s ->
    mark_verifies st (if s.s_verifies then st.cur else None);
    mark_mutates st (if s.s_mutates then st.cur else None);
    let slots = map_args s.s_labels (List.map (fun (l, _, t) -> (l, t)) arg_taints) in
    let params = Array.of_list s.s_params in
    let arg_for_pid pid =
      let found = ref None in
      Array.iteri (fun i p -> if p = pid && i < Array.length slots then found := Some slots.(i)) params;
      !found
    in
    (* Conditional sinks: a parameter of the callee reaches a sink — does
       our argument carry the taint that fires it? *)
    List.iter
      (fun cs ->
        match arg_for_pid cs.cs_pid with
        | Some at ->
          sink_check st ~need_wu:cs.cs_wu ~need_wl:cs.cs_wl ~rule:cs.cs_rule ~file:cs.cs_file
            ~line:cs.cs_line ~msg:cs.cs_msg at
        | None -> ())
      s.s_csinks;
    (* Result: the callee's wire bits, plus our arguments' taint wherever
       the result depends on a parameter (masked to the directions the
       callee actually lets through); captured (foreign) deps pass through
       unchanged. *)
    let base = { wu = s.s_result.wu; wl = s.s_result.wl; deps = IMap.empty } in
    IMap.fold
      (fun pid (du, dl) acc ->
        match arg_for_pid pid with
        | Some at -> join acc (mask ~keep_wu:du ~keep_wl:dl at)
        | None -> join acc { clean with deps = IMap.singleton pid (du, dl) })
      s.s_result.deps base

(* A lambda literal passed to a higher-order function: its parameters see
   the collection/arguments the HOF feeds it ([List.iter (fun x -> ...)
   tainted_list] taints [x]). *)
and analyze_hof_lambda st env (lam : T.expression) arg_taint =
  let params, body = split_params lam [] in
  let env' =
    List.fold_left
      (fun env' (_, p) ->
        match p with `Pat pat -> bind_pattern env' pat arg_taint | `Cases _ -> env')
      env params
  in
  match body with
  | Some b -> ignore (analyze st env' b)
  | None -> (
    match List.rev params with
    | (_, `Cases cases) :: _ ->
      List.iter
        (fun (c : value case) ->
          let envc = bind_pattern env' c.c_lhs arg_taint in
          Option.iter (fun g -> ignore (analyze st envc g)) c.c_guard;
          ignore (analyze st envc c.c_rhs))
        cases
    | _ -> ())

(* --- branch refinement ------------------------------------------------------ *)

(* [refine st env cond] = (env for the then-branch, env for the else-
   branch).  A comparison against a non-wire bound discharges exactly the
   direction it checks; comparisons against attacker-controlled values
   refine nothing. *)
and refine st env (c : T.expression) : venv * venv =
  match c.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_env; _ }, args) -> (
    let key = resolve exp_env p in
    let ops = List.filter_map snd args in
    match (key, ops) with
    | (Some "Stdlib", (("<" | "<=" | ">" | ">=" | "=" | "<>") as op)), [ a; b ] ->
      (* The bound itself must not be wire-derived ([is_wire], bits only):
         values reaching here from a *registered* source param carry wire
         bits and never sanitize, while trusted state threaded through
         ordinary parameters (config fields, local windows) does.  A bound
         taken from an unregistered caller-supplied value is therefore
         trusted — documented blind spot, pinned in taint_blind.ml. *)
      let refine_operand (env_t, env_f) x other ~flip =
        match as_ident x with
        | Some id when not (is_wire (analyze st env other)) -> (
          let op = if flip then (match op with "<" -> ">" | "<=" -> ">=" | ">" -> "<" | ">=" -> "<=" | o -> o) else op in
          match op with
          | "<" | "<=" -> (clear_dir ~upper:true env_t id, clear_dir ~upper:false env_f id)
          | ">" | ">=" -> (clear_dir ~upper:false env_t id, clear_dir ~upper:true env_f id)
          | "=" -> (clear_both env_t id, env_f)
          | "<>" -> (env_t, clear_both env_f id)
          | _ -> (env_t, env_f))
        | _ -> (env_t, env_f)
      in
      let acc = refine_operand (env, env) a b ~flip:false in
      refine_operand acc b a ~flip:true
    | (Some "Stdlib", "&&"), [ a; b ] ->
      let ta, _ = refine st env a in
      let tb, _ = refine st ta b in
      (tb, env)
    | (Some "Stdlib", "||"), [ a; b ] ->
      let _, fa = refine st env a in
      let _, fb = refine st fa b in
      (env, fb)
    | (Some "Stdlib", "not"), [ a ] ->
      let t, f = refine st env a in
      (f, t)
    | (Some "Hashtbl", "mem"), [ _; k ] -> (
      match as_ident k with Some id -> (clear_both env id, env) | None -> (env, env))
    | _ -> (
      match find_sanitizer st key with
      | Some (San_predicate i) -> (
        match List.nth_opt ops i with
        | Some arg ->
          (List.fold_left clear_both env (expr_idents arg), env)
        | None -> (env, env))
      | _ -> (env, env)))
  | _ -> (env, env)

(* Refinement carried across a statement: [if bad then raise ...; rest]
   and guard helpers ([Xdr.need], [Invariant.require]) vouch for the rest
   of the sequence. *)
and seq_refine st env (e1 : T.expression) =
  match e1.exp_desc with
  | Texp_ifthenelse (c, th, None) when diverges th ->
    let _, envf = refine st env c in
    envf
  | Texp_ifthenelse (c, th, Some el) when diverges th && not (diverges el) ->
    let _, envf = refine st env c in
    envf
  | Texp_ifthenelse (c, th, Some el) when diverges el && not (diverges th) ->
    let envt, _ = refine st env c in
    envt
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_env; _ }, args) -> (
    let key = resolve exp_env p in
    let ops = List.filter_map snd args in
    match find_sanitizer st key with
    | Some (San_guard i) -> (
      match List.nth_opt ops i with
      | Some arg -> List.fold_left clear_both env (expr_idents arg)
      | None -> env)
    | Some (San_require i) -> (
      match List.nth_opt ops i with
      | Some cond ->
        let envt, _ = refine st env cond in
        envt
      | None -> env)
    | _ -> env)
  | _ -> env

(* Hash-table membership laundering, deliberately one-way: looking up a
   tainted key in a table *we* populated ([own_cps]) and proceeding only
   on [Some _] proves the key was locally produced. *)
and member_refine _st env (scrut : T.expression) (pat : computation general_pattern) =
  (* The key (an ident, or a tuple of idents) looked up in a table this
     code populated itself: a [Some _] arm proves the key was locally
     produced, so it is bounded. *)
  let key_idents (k : T.expression) =
    match k.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> [ id ]
    | Texp_tuple es -> List.filter_map as_ident es
    | _ -> []
  in
  match (scrut.exp_desc, pat_value_arg pat) with
  | ( Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_env; _ }, args),
      Some { pat_desc = Tpat_construct (_, { cstr_name = "Some"; _ }, _, _); _ } ) -> (
    match resolve exp_env p with
    | Some "Hashtbl", ("find_opt" | "find") -> (
      match List.filter_map snd args with
      | [ _; k ] -> List.fold_left clear_both env (key_idents k)
      | _ -> env)
    | _ -> env)
  | _ -> env

(* [match tag with 0 -> ... | 1 -> ...]: inside a constant case the
   scrutinee is that constant — bounded. *)
and const_refine env (scrut : T.expression) (pat : computation general_pattern) =
  match (as_ident scrut, pat_value_arg pat) with
  | Some id, Some { pat_desc = Tpat_constant _; _ } -> clear_both env id
  | _ -> env

(* --- function summarization ------------------------------------------------- *)

and analyze_function st ~key id fexpr outer_env =
  let params, body = split_params fexpr [] in
  let labels = List.map (fun (l, _) -> label_name l) params in
  let summary =
    match Hashtbl.find_opt st.locals (st.cur_rel, id) with
    | Some s -> s
    | None ->
      let pids =
        List.map
          (fun _ ->
            let pid = st.next_param in
            st.next_param <- st.next_param + 1;
            pid)
          params
      in
      let s =
        {
          s_params = pids;
          s_labels = labels;
          s_result = clean;
          s_csinks = [];
          s_verifies = false;
          s_mutates = false;
        }
      in
      List.iteri (fun i pid -> Hashtbl.replace st.owner pid (s, i)) pids;
      Hashtbl.replace st.locals (st.cur_rel, id) s;
      (match key with
      | Some (m, n) -> Hashtbl.replace st.global (m, n) s
      | None -> ());
      s
  in
  let fname = Ident.name id in
  let param_taint i pid =
    let is_src =
      List.exists
        (fun (m, n, pi) ->
          pi = i && String.equal n fname && String.equal m st.cur_unit)
        st.registry.rg_param_sources
      ||
      match key with
      | Some (m, n) ->
        List.exists
          (fun (m', n', pi) -> pi = i && String.equal n' n && String.equal m' m)
          st.registry.rg_param_sources
      | None -> false
    in
    if is_src then { wu = true; wl = true; deps = IMap.singleton pid (true, true) }
    else { clean with deps = IMap.singleton pid (true, true) }
  in
  let env, tail_cases =
    List.fold_left
      (fun (env, _) (i, (_, p), pid) ->
        match p with
        | `Pat pat -> (bind_pattern env pat (param_taint i pid), None)
        | `Cases cases -> (env, Some (cases, param_taint i pid)))
      (outer_env, None)
      (List.mapi (fun i p -> (i, p, List.nth summary.s_params i)) params)
  in
  let prev = st.cur in
  st.cur <- Some summary;
  let result =
    match (body, tail_cases) with
    | Some b, _ -> analyze st env b
    | None, Some (cases, ts) ->
      List.fold_left
        (fun acc (c : value case) ->
          let envc = bind_pattern env c.c_lhs ts in
          let envc =
            match c.c_guard with
            | Some g ->
              ignore (analyze st envc g);
              let envt, _ = refine st envc g in
              envt
            | None -> envc
          in
          join acc (analyze st envc c.c_rhs))
        clean cases
    | None, None -> clean
  in
  update_result st summary result;
  st.cur <- prev

(* --- B2: verify-before-mutate ordering -------------------------------------- *)

(* A second, ordering-sensitive walk (run in pass 2 with summaries fixed):
   build the sequence of mutation / verification events a handler performs
   in evaluation order and flag any mutation that still has a verification
   ahead of it on the same path.  Branches are parallel; lambda bodies are
   deferred callbacks and excluded (documented blind spot). *)
type ev = Mut of int * string | Ver | Seq of ev list | Par of ev list

let rec events st (e : T.expression) : ev list =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_function _ -> []
  | Texp_let (_, vbs, body) ->
    List.concat_map (fun (vb : T.value_binding) -> events st vb.vb_expr) vbs
    @ events st body
  | Texp_apply (fn, args) -> (
    let arg_evs =
      List.concat_map (fun (_, a) -> match a with Some a -> events st a | None -> []) args
    in
    match fn.exp_desc with
    | Texp_ident (p, _, _) -> (
      let key = resolve fn.exp_env p in
      let name = match key with Some m, n -> m ^ "." ^ n | None, n -> n in
      if is_benign st key then arg_evs
      else if is_verifier st key then arg_evs @ [ Ver ]
      else if mutation_prim key then
        arg_evs
        @ [ Mut (line_of e.exp_loc, Printf.sprintf "%s mutates replica state" name) ]
      else begin
        let summary =
          match key with
          | Some m, n -> Hashtbl.find_opt st.global (m, n)
          | None, n -> Hashtbl.find_opt st.global (st.cur_unit, n)
        in
        match summary with
        | Some s ->
          arg_evs
          @ (if s.s_verifies then [ Ver ] else [])
          @
          if s.s_mutates && not s.s_verifies then
            [ Mut (line_of e.exp_loc, Printf.sprintf "call to %s mutates replica state" name) ]
          else []
        | None -> arg_evs
      end)
    | Texp_field (_, _, _) -> arg_evs
    | _ -> events st fn @ arg_evs)
  | Texp_setfield (obj, _, lbl, v) ->
    events st obj @ events st v
    @ [ Mut (line_of e.exp_loc, Printf.sprintf "field %s is assigned" lbl.lbl_name) ]
  | Texp_ifthenelse (c, th, el) ->
    events st c
    @ [ Par [ Seq (events st th); Seq (match el with Some x -> events st x | None -> []) ] ]
  | Texp_match (scrut, cases, _) ->
    events st scrut
    @ [ Par (List.map (fun (c : computation case) -> Seq (events st c.c_rhs)) cases) ]
  | Texp_try (body, cases) ->
    events st body
    @ [ Par (List.map (fun (c : value case) -> Seq (events st c.c_rhs)) cases) ]
  | Texp_sequence (e1, e2) -> events st e1 @ events st e2
  | Texp_while (c, body) -> events st c @ events st body
  | Texp_for (_, _, lo, hi, _, body) -> events st lo @ events st hi @ events st body
  | Texp_tuple es | Texp_array es -> List.concat_map (events st) es
  | Texp_construct (_, _, es) -> List.concat_map (events st) es
  | Texp_record { fields; extended_expression; _ } ->
    (match extended_expression with Some x -> events st x | None -> [])
    @ List.concat_map
        (fun (_, def) -> match def with Overridden (_, x) -> events st x | Kept _ -> [])
        (Array.to_list fields)
  | Texp_field (obj, _, _) -> events st obj
  | Texp_assert (c, _) -> events st c
  | Texp_lazy x | Texp_open (_, x) | Texp_letmodule (_, _, _, _, x) | Texp_letexception (_, x)
    ->
    events st x
  | _ -> []

(* Right-to-left over a sequence: [ver_after] = a verification happens
   later on this path.  Returns whether this event contains one. *)
let rec scan_ev st ~ver_after ev =
  match ev with
  | Ver -> true
  | Mut (line, what) ->
    if ver_after then
      add_finding st ~file:st.cur_rel ~line ~rule:Checks.B2
        ~msg:
          (Printf.sprintf
             "%s before the message is verified on this handler path (verify-before-mutate)"
             what);
    false
  | Seq l ->
    let _, has =
      List.fold_left
        (fun (va, has) e ->
          let hv = scan_ev st ~ver_after:va e in
          (va || hv, has || hv))
        (ver_after, false)
        (List.rev l)
    in
    has
  | Par l -> List.fold_left (fun acc e -> scan_ev st ~ver_after e || acc) false l

let b2_check_function st fexpr =
  let params, body = split_params fexpr [] in
  let evs =
    match body with
    | Some b -> events st b
    | None -> (
      match List.rev params with
      | (_, `Cases cases) :: _ ->
        [ Par (List.map (fun (c : value case) -> Seq (events st c.c_rhs)) cases) ]
      | _ -> [])
  in
  ignore (scan_ev st ~ver_after:false (Seq evs))

(* --- per-unit walk ----------------------------------------------------------- *)

let module_of_rel rel = String.capitalize_ascii Filename.(remove_extension (basename rel))

let rec walk_structure st ~unit_module (str : T.structure) =
  List.iter
    (fun (item : T.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : T.value_binding) ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_function _ ->
              analyze_function st ~key:(Some (unit_module, Ident.name id)) id vb.vb_expr
                IdMap.empty
            | _ -> ignore (analyze st IdMap.empty vb.vb_expr))
          vbs
      | Tstr_module mb -> (
        match (mb.mb_id, mb.mb_expr.mod_desc) with
        | Some mid, Tmod_structure sub ->
          let saved = st.cur_unit in
          st.cur_unit <- Ident.name mid;
          walk_structure st ~unit_module:(Ident.name mid) sub;
          st.cur_unit <- saved
        | _ -> ())
      | Tstr_eval (e, _) -> ignore (analyze st IdMap.empty e)
      | _ -> ())
    str.str_items

let analyze_unit st (rel, str) =
  st.cur_rel <- rel;
  st.cur_unit <- module_of_rel rel;
  walk_structure st ~unit_module:st.cur_unit str

let b2_unit st (rel, str) =
  if Checks.rule_applies Checks.B2 rel then begin
    st.cur_rel <- rel;
    st.cur_unit <- module_of_rel rel;
    List.iter
      (fun (item : T.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : T.value_binding) ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var _, Texp_function _ -> b2_check_function st vb.vb_expr
              | _ -> ())
            vbs
        | _ -> ())
      str.str_items
  end

(* --- entry points ------------------------------------------------------------ *)

let max_rounds = 20

let run st units =
  st.changed <- true;
  let round = ref 0 in
  while st.changed && !round < max_rounds do
    st.changed <- false;
    incr round;
    List.iter (analyze_unit st) units
  done;
  st.flagging <- true;
  List.iter (analyze_unit st) units;
  List.iter (b2_unit st) units;
  List.sort_uniq Checks.compare_finding st.findings

(* Analyze [(source, cmt path, cmt)] units *together*, in one fixpoint, so
   taint crosses compilation-unit boundaries. *)
let scan ~registry ~cmt_root units =
  Typed_checks.use_load_path ~cmt_root (List.map (fun (_, _, cmt) -> cmt) units);
  run (new_state registry)
    (List.filter_map
       (fun (rel, _, (cmt : Cmt_format.cmt_infos)) ->
         match cmt.cmt_annots with Implementation str -> Some (rel, str) | _ -> None)
       units)

(* {!scan} over [(rel, cmt path)] pairs: the fixture-test entry point. *)
let check_cmts ~registry ~cmt_root pairs =
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | (rel, path) :: rest ->
      Result.bind (Typed_checks.read_cmt path) (fun cmt -> load ((rel, path, cmt) :: acc) rest)
  in
  Result.map (scan ~registry ~cmt_root) (load [] pairs)
