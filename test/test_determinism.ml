(* Order-pinning tests for the typed comparators introduced by the basecheck
   pass: each one fixes an ordering that the replication stack relies on for
   determinism, so pin it down before anyone "simplifies" it back to the
   polymorphic [compare]. *)

module Loc = Base_util.Loc_count
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

(* A fetch hands the objects it fetched to [put_objs] in one batch, in
   ascending index order, whatever order the replies arrived in. *)
let test_state_transfer_obj_order () =
  let module P = Test_st_pipeline in
  let batches = ref [] in
  let store_src, src = P.synthetic ~seed:1L () in
  let _, dst = P.synthetic ~on_put:(fun objs -> batches := List.map fst objs :: !batches) ~seed:1L () in
  let prng = Base_util.Prng.create 2L in
  let touched = [ 41; 3; 60; 17; 9; 33; 28 ] in
  List.iter (fun i -> P.mutate ~obj_bytes:64 store_src src prng i) touched;
  let _, digest = P.checkpoint src ~seq:1 in
  let r = P.drive ~window:2 ~sources:[ 0; 1; 2 ] ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true r.P.completed;
  Alcotest.(check (list (list int)))
    "one batch, ascending indices" [ List.sort Int.compare touched ] !batches

(* An object's fields and references encode sorted by name, whatever order
   the engine holds them in: two wrappers that set them in opposite orders
   agree on the reply and on the abstract object's bytes. *)
let test_oodb_canonical_order () =
  let build ~seed order =
    let w = Test_oodb.make_wrapper ~seed in
    let exec = Test_oodb.exec w ~ts:1L in
    let o = match exec New with R_oid o -> o | _ -> Alcotest.fail "new" in
    let kids = List.map (fun _ -> match exec New with R_oid k -> k | _ -> Alcotest.fail "new") [ 1; 2 ] in
    let steps =
      [
        (fun () -> exec (Set_field (o, "size", "2")));
        (fun () -> exec (Set_field (o, "name", "x")));
        (fun () -> exec (Set_ref (o, "next", List.nth kids 0)));
        (fun () -> exec (Set_ref (o, "child", List.nth kids 1)));
      ]
    in
    List.iter (fun step -> ignore (step ())) (order steps);
    (w, exec (Get o), o)
  in
  let a, reply_a, o = build ~seed:1L Fun.id in
  let b, reply_b, _ = build ~seed:2L List.rev in
  (match reply_a with
  | R_value { fields; refs; _ } ->
    Alcotest.(check (list (pair string string)))
      "fields by name" [ ("name", "x"); ("size", "2") ] fields;
    Alcotest.(check (list string)) "refs by name" [ "child"; "next" ] (List.map fst refs)
  | _ -> Alcotest.fail "get");
  Alcotest.(check bool) "same reply" true (reply_a = reply_b);
  Alcotest.(check string) "same abstract object"
    (a.Base_core.Service.get_obj o.index) (b.Base_core.Service.get_obj o.index)

let suite =
  [
    Alcotest.test_case "heap tie-break" `Quick test_heap_tie_break;
    Alcotest.test_case "loc_count determinism" `Quick test_loc_count_dir_deterministic;
    Alcotest.test_case "state-transfer install order" `Quick test_state_transfer_obj_order;
    Alcotest.test_case "oodb canonical order" `Quick test_oodb_canonical_order;
  ]
