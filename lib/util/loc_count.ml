type counts = { files : int; lines : int; semicolons : int }

let zero = { files = 0; lines = 0; semicolons = 0 }

let add a b =
  {
    files = a.files + b.files;
    lines = a.lines + b.lines;
    semicolons = a.semicolons + b.semicolons;
  }

(* Length of the character literal ['"'] or ['\"'] starting at [i], or 0:
   the two literals that spell a double quote are skipped whole so their
   quote does not open a string. *)
let quote_literal src i =
  let at k ch = i + k < String.length src && src.[i + k] = ch in
  if not (at 0 '\'') then 0
  else if at 1 '"' && at 2 '\'' then 3
  else if at 1 '\\' && at 2 '"' && at 3 '\'' then 4
  else 0

(* One-pass scanner tracking OCaml comment nesting and string literals. A
   line counts when it contains at least one code character. *)
let count_string src =
  let n = String.length src in
  let lines = ref 0 and semis = ref 0 in
  let depth = ref 0 and in_string = ref false in
  let line_has_code = ref false in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      if !line_has_code then incr lines;
      line_has_code := false;
      incr i
    end
    else if !in_string then begin
      if c = '\\' then i := !i + 2
      else begin
        if c = '"' then in_string := false;
        incr i
      end
    end
    else if !depth > 0 then begin
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        incr depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr depth;
        i := !i + 2
      end
      else incr i
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      depth := 1;
      i := !i + 2
    end
    else if quote_literal src !i > 0 then begin
      line_has_code := true;
      i := !i + quote_literal src !i
    end
    else begin
      if c = '"' then in_string := true;
      if c = ';' then incr semis;
      if c <> ' ' && c <> '\t' && c <> '\r' then line_has_code := true;
      incr i
    end
  done;
  if !line_has_code then incr lines;
  { files = 1; lines = !lines; semicolons = !semis }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_file path = count_string (read_file path)

let rec count_path ?(ext = [ ".ml"; ".mli" ]) path =
  if not (Sys.is_directory path) then count_file path
  else
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat path name in
        if Sys.is_directory path || List.exists (fun e -> Filename.check_suffix name e) ext then
          add acc (count_path ~ext path)
        else acc)
      zero entries
