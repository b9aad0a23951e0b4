(* Tolerance-based comparison of two BENCH_metrics.json files.

     bench_diff.exe BLESSED CURRENT

   The benchmark export is a pure function of its seeds, so CI checks
   determinism by requiring two consecutive runs to be byte-identical.  The
   comparison against the blessed copy in the repository is different in
   kind: an intentional change anywhere in the stack (a wire-size tweak, a
   new metric draw) legitimately shifts timing-derived numbers without
   invalidating the claims the artifact records.  Requiring byte equality
   there turns every such change into a wholesale re-bless, which reviewers
   cannot distinguish from a regression.  So structure is compared exactly
   — same sections, same keys, same strings and booleans — while numbers
   are compared per top-level section with a relative tolerance (plus a
   small absolute slack for integers, which count events).  Each section
   gets a verdict line — [identical], [within tolerance (k numbers moved)]
   or [out of tolerance] — so a refactor that claims to leave the benchmark
   alone shows which sections it kept byte-for-byte.  Exit status 0 means
   within tolerance; 1 prints every violation with its JSON path. *)

module Json = Base_obs.Json

(* Per-section relative tolerance.  E14 and E16 are dominated by a handful
   of recovery episodes' timings, so they get the widest band. *)
let tolerance_for = function
  | "e14" | "e16" -> 0.30
  (* e17 carries the profile's alloc_bytes, which drifts with compiler
     version (inlining decides what allocates) even though call counts are
     exact; same band as the load-sensitive sections.  e18 is an open-loop
     saturation sweep like e15: throughput at the ceiling is load-sensitive. *)
  | "e12" | "e13" | "e15" | "e17" | "e18" -> 0.15
  | _ -> 0.10

(* Counts of discrete events (retransmissions, cache hits, recoveries) sit
   near zero where a relative band is meaningless; integers may drift by a
   small absolute amount on top.  Floats (seconds, ratios, rates) get no
   slack: 2.0 of it would pass any change to a float below 2.  [Json] prints
   every float with a point or an exponent, so a float never reads back as
   an integer and takes the integers' slack. *)
let count_slack = 2.0

let close ~rtol ~slack a b =
  let d = Float.abs (a -. b) in
  d <= slack || d <= rtol *. Float.max (Float.abs a) (Float.abs b)

let violations = ref []

let report path msg = violations := Printf.sprintf "%s: %s" path msg :: !violations

(* Numbers of the section being compared that differ at all. *)
let moved = ref 0

let same_keys a b = List.length a = List.length b && List.for_all2 String.equal a b

(* A number with the absolute slack its kind allows. *)
let number = function
  | Json.Int i -> Some (float_of_int i, count_slack)
  | Json.Float f -> Some (f, 0.0)
  | _ -> None

let rec compare_values ~rtol path a b =
  match (number a, number b) with
  | Some (x, sx), Some (y, sy) ->
    if not (Float.equal x y) then incr moved;
    if not (close ~rtol ~slack:(Float.min sx sy) x y) then
      report path (Printf.sprintf "%.6g vs %.6g exceeds %.0f%% tolerance" x y (100.0 *. rtol))
  | _ -> (
    match (a, b) with
    | Json.Null, Json.Null -> ()
    | Json.Bool x, Json.Bool y ->
      if x <> y then report path (Printf.sprintf "%b vs %b" x y)
    | Json.Str x, Json.Str y ->
      if not (String.equal x y) then report path (Printf.sprintf "%S vs %S" x y)
    | Json.List xs, Json.List ys ->
      if List.length xs <> List.length ys then
        report path
          (Printf.sprintf "list length %d vs %d" (List.length xs) (List.length ys))
      else
        List.iteri
          (fun i (x, y) -> compare_values ~rtol (Printf.sprintf "%s[%d]" path i) x y)
          (List.combine xs ys)
    | Json.Obj xs, Json.Obj ys ->
      let sort = List.sort (fun (a, _) (b, _) -> String.compare a b) in
      let xs = sort xs and ys = sort ys in
      let keys l = List.map fst l in
      if not (same_keys (keys xs) (keys ys)) then
        report path
          (Printf.sprintf "key sets differ: {%s} vs {%s}"
             (String.concat "," (keys xs))
             (String.concat "," (keys ys)))
      else
        List.iter2
          (fun (k, x) (_, y) -> compare_values ~rtol (path ^ "." ^ k) x y)
          xs ys
    | _ -> report path "type mismatch")

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Json.of_string contents with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "bench_diff: %s: %s\n" path e;
    exit 2

let () =
  let blessed_path, current_path =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ ->
      Printf.eprintf "usage: bench_diff BLESSED CURRENT\n";
      exit 2
  in
  let blessed = load blessed_path and current = load current_path in
  (match (blessed, current) with
  | Json.Obj bs, Json.Obj cs ->
    let sort = List.sort (fun (a, _) (b, _) -> String.compare a b) in
    let bs = sort bs and cs = sort cs in
    if not (same_keys (List.map fst bs) (List.map fst cs)) then
      report "$"
        (Printf.sprintf "section sets differ: {%s} vs {%s}"
           (String.concat "," (List.map fst bs))
           (String.concat "," (List.map fst cs)))
    else
      List.iter2
        (fun (section, b) (_, c) ->
          let before = List.length !violations in
          moved := 0;
          compare_values ~rtol:(tolerance_for section) ("$." ^ section) b c;
          let bad = List.length !violations - before in
          Printf.printf "bench_diff: %s %s\n" section
            (if bad > 0 then Printf.sprintf "out of tolerance (%d violation(s))" bad
             else if !moved = 0 then "identical"
             else Printf.sprintf "within tolerance (%d numbers moved)" !moved))
        bs cs
  | _ -> report "$" "top level is not an object in both files");
  match !violations with
  | [] -> print_endline "bench_diff: within tolerance"
  | vs ->
    Printf.printf "bench_diff: %d violation(s):\n" (List.length vs);
    List.iter (fun v -> Printf.printf "  %s\n" v) (List.rev vs);
    exit 1
