(* basecheck: determinism & Byzantine-robustness lint over the replication
   stack.

   The checker parses every [.ml] file with compiler-libs (syntax only, no
   typing) and walks the Parsetree with an {!Ast_iterator}.  Rules are
   therefore syntactic approximations of the semantic properties they
   protect; doc/lint.md documents each rule, its known blind spots, and the
   allowlist policy.  Suppression is never inline: a waiver is a
   [(file, rule, justification)] entry in lint/allowlist.sexp. *)

type rule = D1 | D2 | D3 | D4 | E1 | E2 | B1 | B2 | B3 | U1 | A1

let rule_name = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | E1 -> "E1"
  | E2 -> "E2"
  | B1 -> "B1"
  | B2 -> "B2"
  | B3 -> "B3"
  | U1 -> "U1"
  | A1 -> "A1"

let rule_of_name = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "D4" -> Some D4
  | "E1" -> Some E1
  | "E2" -> Some E2
  | "B1" -> Some B1
  | "B2" -> Some B2
  | "B3" -> Some B3
  | "U1" -> Some U1
  | "A1" -> Some A1
  | _ -> None

let all_rules = [ D1; D2; D3; D4; E1; E2; B1; B2; B3; U1; A1 ]

type finding = { file : string; line : int; rule : rule; msg : string }

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule)

let pp_finding f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line (rule_name f.rule) f.msg

(* --- rule scoping by repo-relative path ---------------------------------- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* D2: all scanned code must draw time/randomness from the simulator; the
   seeded generator itself is the one place allowed to sit below that API. *)
let d2_applies rel = not (String.equal rel "lib/util/prng.ml")

(* D4: process-level escape hatches are banned in library code only;
   executables under bin/ and bench/ may exit. *)
let d4_applies rel = has_prefix ~prefix:"lib/" rel

(* E1: Byzantine-facing paths — everything a malicious message can reach. *)
let e1_applies rel =
  has_prefix ~prefix:"lib/bft/" rel
  || has_prefix ~prefix:"lib/base_core/" rel
  || has_prefix ~prefix:"lib/codec/" rel

(* E2: discarded [Result] errors are banned in library code; executables
   may deliberately drop results (e.g. warm-up runs). *)
let e2_applies rel = has_prefix ~prefix:"lib/" rel

(* B1/B3: the taint backend polices the wire→trust boundary in library code;
   executables consume already-validated simulator output.  B2
   (verify-before-mutate) only makes sense where MAC-carrying protocol
   messages are handled. *)
let b1_applies rel = has_prefix ~prefix:"lib/" rel

let b2_applies rel = has_prefix ~prefix:"lib/bft/" rel

let b3_applies rel = has_prefix ~prefix:"lib/" rel

(* U1: only a library's interface is a contract others may lean on. *)
let u1_applies rel = has_prefix ~prefix:"lib/" rel

(* A1: one-shot encodings share the codec's scratch encoder ([Xdr.encode]);
   only the codec itself builds encoders. *)
let a1_applies rel = has_prefix ~prefix:"lib/" rel && not (has_prefix ~prefix:"lib/codec/" rel)

(* Shared by the syntactic (Parsetree) and typed (Typedtree) backends so
   the two passes agree on where each rule is in force. *)
let rule_applies rule rel =
  match rule with
  | D1 | D3 -> true
  | D2 -> d2_applies rel
  | D4 -> d4_applies rel
  | E1 -> e1_applies rel
  | E2 -> e2_applies rel
  | B1 -> b1_applies rel
  | B2 -> b2_applies rel
  | B3 -> b3_applies rel
  | U1 -> u1_applies rel
  | A1 -> a1_applies rel

(* --- identifier helpers --------------------------------------------------- *)

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let is_sort_fn path =
  match strip_stdlib path with
  | [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ]
  | [ "Array"; ("sort" | "stable_sort") ] ->
    true
  | _ -> false

(* An argument of (=)/(<>) that syntactically allocates structure: comparing
   such a value polymorphically descends into it, which is where determinism
   (functional values, cycles, NaN) and replica-divergence hazards live.
   Variables of structured type are not detectable without typing — that
   blind spot is documented. *)
let structured_operand (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

(* --- per-file AST walk ---------------------------------------------------- *)

type ctx = {
  rel : string;  (* normalized repo-relative path, used for scoping *)
  mutable findings : finding list;
  mutable item_has_sort : bool;
      (* does the enclosing top-level structure item call a sort?  D3 treats
         iter/fold in such an item as sorted-before-emit. *)
  mutable deferred_d3 : (int * string) list;
      (* D3 candidates in the current item, resolved once the item is done *)
}

let flag ctx rule line msg =
  if rule_applies rule ctx.rel then
    ctx.findings <- { file = ctx.rel; line; rule; msg } :: ctx.findings

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Checks on an identifier used as a first-class value (not the head of an
   application), e.g. [List.sort compare]. *)
let check_bare ctx path loc =
  let line = line_of loc in
  (match strip_stdlib path with
  | [ "compare" ] ->
    flag ctx D1 line "polymorphic compare used as a value; pass a typed comparator"
  | [ "Hashtbl"; "hash" ] -> flag ctx D1 line "polymorphic Hashtbl.hash"
  | [ ("min" | "max") as f ] ->
    flag ctx D1 line
      (Printf.sprintf "polymorphic %s used as a value; use a typed comparison" f)
  | [ ("=" | "<>") as op ] ->
    flag ctx D1 line
      (Printf.sprintf "polymorphic (%s) used as a value; use a typed equality" op)
  | _ -> ());
  (match path with
  | "Unix" :: _ -> flag ctx D2 line "Unix.* is OS nondeterminism; use Sim_time / Prng"
  | "Random" :: _ | "Stdlib" :: "Random" :: _ ->
    flag ctx D2 line "Random.* is unseeded nondeterminism; use Base_util.Prng"
  | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
    flag ctx D2 line "Sys.time is wall-clock nondeterminism; use Sim_time"
  | _ -> ());
  (match strip_stdlib path with
  | [ "Hashtbl"; ("iter" | "fold") as f ] ->
    ctx.deferred_d3 <-
      ( line,
        Printf.sprintf
          "Hashtbl.%s iterates in hash order; sort before emitting or allowlist" f )
      :: ctx.deferred_d3
  | _ -> ());
  (match path with
  | "Marshal" :: _ -> flag ctx D4 line "Marshal is unchecked (de)serialization"
  | "Obj" :: _ :: _ -> flag ctx D4 line "Obj.* defeats the type system"
  | [ "exit" ] | [ "Stdlib"; "exit" ] ->
    flag ctx D4 line "exit in library code kills the replica"
  | _ -> ());
  match strip_stdlib path with
  | [ ("failwith" | "invalid_arg") as f ] ->
    flag ctx E1 line
      (Printf.sprintf
         "%s is reachable from message handlers; return Result/Option instead" f)
  | _ -> ()

(* Checks on an identifier applied to arguments.  Fully-applied [min]/[max]
   and non-structured (=) are tolerated: on immediates they are the common,
   harmless case, and without types we cannot do better. *)
let check_applied ctx path loc (args : (Asttypes.arg_label * Parsetree.expression) list) =
  let line = line_of loc in
  (match List.rev path with
  | "encoder" :: "Xdr" :: _ ->
    flag ctx A1 line "fresh Xdr.encoder grows a new buffer per call; use Xdr.encode"
  | _ -> ());
  match strip_stdlib path with
  | [ ("min" | "max") ] when List.length args >= 2 -> ()
  | [ ("=" | "<>") as op ] when List.length args >= 2 ->
    if List.exists (fun (_, a) -> structured_operand a) args then
      flag ctx D1 line
        (Printf.sprintf
           "structural (%s) against a constructed value; use a typed equality" op)
  | _ -> check_bare ctx path loc

let iter_item ctx (item : Parsetree.structure_item) =
  let open Ast_iterator in
  (* Pass 1: does this item sort anywhere?  (D3's sorted-before-emit test.) *)
  ctx.item_has_sort <- false;
  ctx.deferred_d3 <- [];
  let scan =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } ->
            if is_sort_fn (Longident.flatten txt) then ctx.item_has_sort <- true
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  scan.structure_item scan item;
  (* Pass 2: flag. *)
  let check =
    {
      default_iterator with
      expr =
        (fun self e ->
          match e.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
            check_applied ctx (Longident.flatten txt) pexp_loc args;
            List.iter (fun (_, a) -> self.expr self a) args
          | Pexp_ident { txt; _ } -> check_bare ctx (Longident.flatten txt) e.pexp_loc
          | Pexp_assert
              { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
            flag ctx E1 (line_of e.pexp_loc)
              "assert false is reachable from message handlers; return Result/Option \
               instead"
          | _ -> default_iterator.expr self e);
    }
  in
  check.structure_item check item;
  if not ctx.item_has_sort then
    List.iter (fun (line, msg) -> flag ctx D3 line msg) ctx.deferred_d3

(* --- entry points --------------------------------------------------------- *)

let parse_impl path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

(* [rel] is the repo-relative path used for rule scoping and reporting;
   [path] is where the bytes live on disk (they differ under dune's
   sandbox and for test fixtures posing as library files). *)
let check_file ~rel path =
  match parse_impl path with
  | exception Sys_error e -> Error e
  | exception _ -> Error (Printf.sprintf "%s: syntax error (file does not parse)" rel)
  | str ->
    let ctx = { rel; findings = []; item_has_sort = false; deferred_d3 = [] } in
    List.iter (iter_item ctx) str;
    Ok (List.sort compare_finding ctx.findings)

(* --- allowlist ------------------------------------------------------------ *)

type waiver = { w_file : string; w_rule : rule; w_justification : string }

let compare_waiver a b =
  let c = String.compare a.w_file b.w_file in
  if c <> 0 then c else String.compare (rule_name a.w_rule) (rule_name b.w_rule)

(* Minimal s-expression reader: atoms, double-quoted strings with
   backslash escapes, lists, and ';' line comments. *)
type sexp = Atom of string | Sexp_list of sexp list

exception Sexp_error of string

let read_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | _ -> ()
  in
  let read_string () =
    advance ();
    let buf = Buffer.create 32 in
    let rec loop () =
      if !pos >= n then raise (Sexp_error "unterminated string")
      else
        match src.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          if !pos + 1 >= n then raise (Sexp_error "unterminated escape");
          Buffer.add_char buf src.[!pos + 1];
          pos := !pos + 2;
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let read_atom () =
    let start = !pos in
    let stop = ref false in
    while not !stop do
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> stop := true
      | Some _ -> advance ()
    done;
    String.sub src start (!pos - start)
  in
  let rec read_one () =
    skip_ws ();
    match peek () with
    | None -> None
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | Some ')' -> advance ()
        | None -> raise (Sexp_error "unterminated list")
        | Some _ -> (
          match read_one () with
          | Some s ->
            items := s :: !items;
            loop ()
          | None -> raise (Sexp_error "unterminated list"))
      in
      loop ();
      Some (Sexp_list (List.rev !items))
    | Some ')' -> raise (Sexp_error "unexpected ')'")
    | Some '"' -> Some (Atom (read_string ()))
    | Some _ -> Some (Atom (read_atom ()))
  in
  let rec all acc =
    match read_one () with Some s -> all (s :: acc) | None -> List.rev acc
  in
  all []

let field key entry =
  List.find_map
    (function
      | Sexp_list [ Atom k; Atom v ] when String.equal k key -> Some v
      | _ -> None)
    entry

let waiver_of_sexp = function
  | Sexp_list entry -> (
    match (field "file" entry, field "rule" entry, field "justification" entry) with
    | Some f, Some r, Some j -> (
      match rule_of_name r with
      | Some rule -> Ok { w_file = f; w_rule = rule; w_justification = j }
      | None -> Error (Printf.sprintf "allowlist: unknown rule %S" r))
    | _ -> Error "allowlist: entry needs (file ...) (rule ...) (justification ...)")
  | Atom a -> Error (Printf.sprintf "allowlist: expected a list, got atom %S" a)

let load_allowlist path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in_bin path in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match read_sexps src with
    | exception Sexp_error e -> Error (Printf.sprintf "%s: %s" path e)
    | sexps ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
          match waiver_of_sexp s with
          | Ok w -> collect (w :: acc) rest
          | Error e -> Error (Printf.sprintf "%s: %s" path e))
      in
      collect [] sexps
  end

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let save_allowlist path waivers =
  let waivers = List.sort_uniq compare_waiver waivers in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        ";; basecheck allowlist: every waiver is (file, rule, justification).\n";
      output_string oc
        ";; Regenerate deterministically with: dune exec lint/basecheck.exe -- --update \
         lib bin bench\n";
      List.iter
        (fun w ->
          Printf.fprintf oc "((file %s) (rule %s)\n (justification \"%s\"))\n" w.w_file
            (rule_name w.w_rule)
            (escape_string w.w_justification))
        waivers)

let waived waivers (f : finding) =
  List.exists
    (fun w -> String.equal w.w_file f.file && w.w_rule = f.rule)
    waivers

(* --- backends --------------------------------------------------------------- *)

type backend = Syntactic | Typed | Taint

let backend_name = function Syntactic -> "syntactic" | Typed -> "typed" | Taint -> "taint"

(* The rules each backend can report. *)
let backend_rules = function
  | Syntactic -> [ D1; D2; D3; D4; E1; A1 ]
  | Typed -> [ D1; D3; E1; E2; U1 ]
  | Taint -> [ B1; B2; B3 ]

(* Whether a run of [backends] could report [rule] at all: one that
   cannot says nothing about that rule's waivers, so they are neither
   stale nor dropped by --update. *)
let checks_rule ~backends rule = List.exists (fun b -> List.mem rule (backend_rules b)) backends

let stale_waivers ~backends waivers findings =
  List.filter
    (fun w -> checks_rule ~backends w.w_rule && not (List.exists (waived [ w ]) findings))
    waivers

(* --- directory walking ---------------------------------------------------- *)

(* Collect .ml files under [dir] (given relative to [root]), sorted for
   deterministic report order; dot-directories and _build are skipped. *)
let ml_files ~root dir =
  let result = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.iter
      (fun name ->
        if name <> "" && name.[0] <> '.' && name <> "_build" then begin
          let rel' = rel ^ "/" ^ name in
          if Sys.is_directory (Filename.concat root rel') then walk rel'
          else if Filename.check_suffix name ".ml" then result := rel' :: !result
        end)
      entries
  in
  walk dir;
  List.sort String.compare !result
