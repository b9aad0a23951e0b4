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

let events t = List.rev t.events

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "  %10.6fs %-24s %s@."
        (Int64.to_float e.ts /. 1e6)
        e.name
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) e.attrs)))
    (events t)
