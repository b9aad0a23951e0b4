(* Order-pinning tests for the typed comparators introduced by the basecheck
   pass: each one fixes an ordering that the replication stack relies on for
   determinism, so pin it down before anyone "simplifies" it back to the
   polymorphic [compare]. *)

module Loc = Base_util.Loc_count
module St = Base_core.State_transfer
module Ow = Base_oodb.Oodb_wrapper
open Base_oodb.Oodb_proto

let test_heap_tie_break () =
  (* Equal keys must pop in insertion order — the simulator's event queue
     depends on it for run-to-run determinism. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c"); (0, "y") ];
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list (pair int string)))
    "min first, ties in insertion order"
    [ (0, "z"); (0, "y"); (1, "a"); (1, "b"); (1, "c") ]
    (drain [])

let test_loc_count_dir_deterministic () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "basecheck_loc_fixture" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name body =
    let oc = open_out (Filename.concat dir name) in
    output_string oc body;
    close_out oc
  in
  write "b.ml" "let x = 1\nlet y = 2;;\n";
  write "a.ml" "(* comment only *)\nlet z = 3\n";
  write "skip.txt" "not counted\n";
  let c1 = Loc.count_path dir in
  let c2 = Loc.count_path dir in
  Alcotest.(check bool) "two scans agree" true (c1 = c2);
  Alcotest.(check int) "files" 2 c1.Loc.files;
  Alcotest.(check int) "lines" 3 c1.Loc.lines;
  (* A file path is one file; a missing path is an error, not zero. *)
  let file = Loc.count_path (Filename.concat dir "b.ml") in
  Alcotest.(check (pair int int)) "one file, its lines" (1, 2) (file.Loc.files, file.Loc.lines);
  match Loc.count_path (Filename.concat dir "missing.ml") with
  | _ -> Alcotest.fail "a missing path counted"
  | exception Sys_error _ -> ()

let test_state_transfer_obj_order () =
  (* Fetched objects install in ascending index order; the payload never
     participates. *)
  Alcotest.(check int) "index orders" (-1) (St.compare_obj (1, "zzz") (2, "aaa"));
  Alcotest.(check int) "payload ignored" 0 (St.compare_obj (5, "a") (5, "b"));
  let objs = [ (3, "c"); (1, "a"); (2, "b") ] in
  Alcotest.(check (list (pair int string)))
    "sort pins ascending indices"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.sort St.compare_obj objs)

let test_oodb_canonical_order () =
  let fields = [ ("size", "2"); ("name", "x"); ("name", "a") ] in
  Alcotest.(check (list (pair string string)))
    "fields by name then value"
    [ ("name", "a"); ("name", "x"); ("size", "2") ]
    (List.sort Ow.compare_field fields);
  let r name index gen = (name, { index; gen }) in
  let refs = [ r "next" 2 0; r "child" 4 1; r "next" 1 5; r "next" 1 2 ] in
  let sorted = List.sort Ow.compare_ref refs in
  Alcotest.(check (list string))
    "refs by name then index then gen"
    [ "child:4.1"; "next:1.2"; "next:1.5"; "next:2.0" ]
    (List.map (fun (f, (o : aoid)) -> Printf.sprintf "%s:%d.%d" f o.index o.gen) sorted)

let suite =
  [
    Alcotest.test_case "heap tie-break" `Quick test_heap_tie_break;
    Alcotest.test_case "loc_count determinism" `Quick test_loc_count_dir_deterministic;
    Alcotest.test_case "state-transfer install order" `Quick test_state_transfer_obj_order;
    Alcotest.test_case "oodb canonical order" `Quick test_oodb_canonical_order;
  ]
