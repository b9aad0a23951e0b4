type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let obj fields = Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Canonical float rendering: a float always prints with a point or an
   exponent, so it never reads back as an [Int] (integers as "<n>.0", and a
   value that rounds to an integer at 9 digits gets ".0" too); non-finite
   values have no JSON encoding and become null. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.9g" f in
    if String.exists (fun c -> Char.equal c '.' || Char.equal c 'e') s then s else s ^ ".0"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_nan f || Float.equal (Float.abs f) Float.infinity then
      Buffer.add_string b "null"
    else Buffer.add_string b (float_str f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    (* Sort defensively so a directly-built Obj is still deterministic. *)
    let fields = List.sort (fun (a, _) (b, _) -> String.compare a b) fields in
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 1024 in
  write b t;
  Buffer.contents b

(* Minimal recursive-descent parser, the inverse of [to_string] /
   [to_string_pretty].  It accepts exactly the subset this module emits
   (which is all the repository's artifacts use): no comments, no leading
   [+], \u escapes only for code points below 0x100.  Object keys keep their
   file order; [obj]'s sorting makes re-emission canonical again. *)
exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let peek_is c = match peek () with Some d -> Char.equal c d | None -> false in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when Char.equal c d -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code =
            try int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
            with Failure _ -> fail "bad \\u escape"
          in
          if code > 0xff then fail "\\u escape beyond one byte";
          pos := !pos + 4;
          Buffer.add_char b (Char.chr code)
        | Some _ | None -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E' | '+') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let lit = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        (* An integer literal too wide for [int]: keep the value as a float
           rather than failing (it compares numerically downstream). *)
        match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek_is ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek_is ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek_is '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek_is ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Indented rendering for humans; same ordering rules as [to_string]. *)
let to_string_pretty t =
  let b = Buffer.create 4096 in
  let pad n = Buffer.add_string b (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as v -> write b v
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      Buffer.add_char b '\n';
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      let fields = List.sort (fun (a, _) (b, _) -> String.compare a b) fields in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          go (depth + 1) v)
        fields;
      Buffer.add_char b '\n';
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 t;
  Buffer.contents b
