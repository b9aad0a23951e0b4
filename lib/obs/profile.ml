(* Hot-path profiling probes.

   A probe accumulates three things per named code region: entry count,
   bytes allocated (see [allocated_bytes] below), and elapsed time
   from an *injected* nanosecond clock.  The clock is a constructor
   argument rather than an ambient read so this module stays inside the
   determinism discipline: the library never touches a wall clock, the
   caller (the benchmark binary) decides what "now" means.  A disabled
   profile costs two loads and a branch per probe site, so production
   paths keep their probes permanently.

   Exported JSON comes in two flavours: [~deterministic:true] drops the
   time fields, leaving only call counts and allocation deltas — both pure
   functions of the code path executed — so the [profile] section of
   BENCH_metrics.json survives the double-run byte-identity gate.  Times
   are for the human-facing table printed alongside. *)

type probe = {
  name : string;
  mutable calls : int;
  mutable ns : int64;
  mutable alloc_b : float;
  mutable depth : int;  (* re-entrant sections count outermost spans only *)
  mutable t0 : int64;
  mutable a0 : float;
}

type t = {
  mutable on : bool;
  now_ns : unit -> int64;
  mutable probes : probe list;  (* registration order; sorted at export *)
}

let create ?(now_ns = fun () -> 0L) () = { on = false; now_ns; probes = [] }

(* A shared permanently-off instance: components that were built without an
   explicit profile attach their probes here, where they stay inert. *)
let disabled = create ()

let enable t = t.on <- true

let probe t name =
  match List.find_opt (fun p -> String.equal p.name name) t.probes with
  | Some p -> p
  | None ->
    let p = { name; calls = 0; ns = 0L; alloc_b = 0.0; depth = 0; t0 = 0L; a0 = 0.0 } in
    t.probes <- t.probes @ [ p ];
    p

let probe_calls p = p.calls

(* Bytes allocated by this domain so far.  [Gc.allocated_bytes]
   undercounts the words still in the minor heap (by 8x on OCaml 5.1) and
   catches up at the next minor collection, so a collection inside a span
   charged that span with allocation made before it.  [Gc.minor_words]
   counts the minor heap exactly. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let start t p =
  if t.on then begin
    p.depth <- p.depth + 1;
    if p.depth = 1 then begin
      p.t0 <- t.now_ns ();
      p.a0 <- allocated_bytes ()
    end
  end

let stop t p =
  if t.on && p.depth > 0 then begin
    p.depth <- p.depth - 1;
    if p.depth = 0 then begin
      p.calls <- p.calls + 1;
      p.ns <- Int64.add p.ns (Int64.sub (t.now_ns ()) p.t0);
      p.alloc_b <- p.alloc_b +. (allocated_bytes () -. p.a0)
    end
  end

let reset t =
  List.iter
    (fun p ->
      p.calls <- 0;
      p.ns <- 0L;
      p.alloc_b <- 0.0;
      p.depth <- 0)
    t.probes

let sorted t = List.sort (fun a b -> String.compare a.name b.name) t.probes

let to_json ?(deterministic = true) t =
  Json.obj
    (List.map
       (fun p ->
         let fields =
           [ ("calls", Json.Int p.calls); ("alloc_bytes", Json.Int (int_of_float p.alloc_b)) ]
         in
         let fields =
           if deterministic then fields
           else fields @ [ ("ns", Json.Int (Int64.to_int p.ns)) ]
         in
         (p.name, Json.obj fields))
       (sorted t))

let pp ppf t =
  Format.fprintf ppf "%-28s %12s %14s %12s@." "probe" "calls" "alloc(B)" "time(ms)";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-28s %12d %14.0f %12.2f@." p.name p.calls p.alloc_b
        (Int64.to_float p.ns /. 1e6))
    (sorted t)
