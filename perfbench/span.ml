(* Benchmark-owned spans around calls into the library's layers.

   The library is never edited to be measured: the instrumented builders
   (Builders) wrap the closures they hand to [Runtime.create] — the service
   wrapper's upcalls, the file-system implementation's entry points, the
   copy-on-write [modify] callback — in spans recorded here.  A span stack
   gives each span a parent, so a span's self time is its duration minus the
   part its child spans cover, and the self times of all spans plus the
   unattributed remainder add up to the measured wall time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  name : string;
  mutable calls : int;
  mutable self_ns : int;
}

type frame = {
  span : t;
  t0 : int;
  mutable child_ns : int;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let stack : frame Stack.t = Stack.create ()

(* Get-or-register: every span of a name aggregates into one row. *)
let make name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
    let s = { name; calls = 0; self_ns = 0 } in
    Hashtbl.replace registry name s;
    s

let enter span = Stack.push { span; t0 = now_ns (); child_ns = 0 } stack

let leave () =
  let fr = Stack.pop stack in
  let d = now_ns () - fr.t0 in
  fr.span.calls <- fr.span.calls + 1;
  fr.span.self_ns <- fr.span.self_ns + d - fr.child_ns;
  match Stack.top_opt stack with
  | Some parent -> parent.child_ns <- parent.child_ns + d
  | None -> ()

let wrap span f =
  enter span;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let reset () =
  Stack.clear stack;
  Hashtbl.iter
    (fun _ s ->
      s.calls <- 0;
      s.self_ns <- 0)
    registry

let self_s name =
  match Hashtbl.find_opt registry name with
  | Some s -> float_of_int s.self_ns /. 1e9
  | None -> 0.0

let calls name = match Hashtbl.find_opt registry name with Some s -> s.calls | None -> 0

(* Sum of the self time of every span: the part of the wall clock the
   benchmark can attribute to a layer. *)
let total_self_s () = Hashtbl.fold (fun _ s acc -> acc +. (float_of_int s.self_ns /. 1e9)) registry 0.0
