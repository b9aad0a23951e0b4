type event = { ts : int64; name : string; attrs : (string * string) list }

type t = { mutable events : event list; mutable n : int; mutable dropped : int; limit : int }

let create ?(limit = 100_000) () = { events = []; n = 0; dropped = 0; limit }

let event t ~ts ~name attrs =
  if t.n < t.limit then begin
    (* Attributes sorted at record time so rendering never depends on the
       caller's argument order. *)
    let attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) attrs in
    t.events <- { ts; name; attrs } :: t.events;
    t.n <- t.n + 1
  end
  else t.dropped <- t.dropped + 1

let length t = t.n

let dropped t = t.dropped

let clear t =
  t.events <- [];
  t.n <- 0;
  t.dropped <- 0

let events t = List.rev t.events

let event_json e =
  Json.obj
    (("ts_us", Json.Int (Int64.to_int e.ts))
    :: ("event", Json.Str e.name)
    :: List.map (fun (k, v) -> ("attr." ^ k, Json.Str v)) e.attrs)

(* One JSON object per line, in event order: greppable and diffable. *)
let to_string t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (event_json e));
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "  %10.6fs %-24s %s@."
        (Int64.to_float e.ts /. 1e6)
        e.name
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) e.attrs)))
    (events t)
