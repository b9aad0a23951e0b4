(* Edge cases of the conformance wrapper that random differential testing is
   unlikely to hit precisely: staging-directory hiding, name validation,
   deep-rename handle refresh (the path-keyed implementation), capacity
   limits, and abstraction-function behaviour on corrupt state. *)

open Base_nfs.Nfs_types
module Proto = Base_nfs.Nfs_proto
module Spec = Base_nfs.Abstract_spec
module Service = Base_core.Service
module S = Base_fs.Server_intf

let impl_clock seed =
  let c = ref (Int64.mul seed 977L) in
  fun () ->
    c := Int64.add !c 61L;
    !c

let make_pair ?(n_objects = 32) impl =
  let seed = 77L in
  let server = Base_workload.Systems.make_impl impl ~seed ~now:(impl_clock seed) in
  (server, Base_wrapper.Conformance.make ~server ~n_objects ())

let exec (w : Service.wrapper) ~ts call =
  Proto.decode_reply
    (w.Service.execute ~client:5 ~operation:(Proto.encode_call call)
       ~nondet:(Service.nondet_of_clock ts) ~read_only:false ~modify:ignore)

let created = function
  | Proto.R_create (o, _) -> o
  | _ -> Alcotest.fail "expected create reply"

let test_staging_never_visible () =
  let _, w = make_pair "hash" in
  (* The staging dir exists concretely under the root from construction. *)
  (match exec w ~ts:1L (Proto.Readdir root_oid) with
  | Proto.R_readdir [] -> ()
  | Proto.R_readdir l -> Alcotest.failf "unexpected entries: %s" (String.concat "," (List.map fst l))
  | _ -> Alcotest.fail "readdir");
  (* Nor can clients address names in the reserved namespace. *)
  match exec w ~ts:2L (Proto.Lookup (root_oid, "#staging")) with
  | Proto.R_err Einval -> ()
  | _ -> Alcotest.fail "reserved name must be EINVAL"

let test_bad_names_rejected () =
  let _, w = make_pair "inode" in
  List.iter
    (fun name ->
      match exec w ~ts:1L (Proto.Create (root_oid, name, sattr_empty)) with
      | Proto.R_err Einval -> ()
      | _ -> Alcotest.failf "name %S accepted" name)
    [ ""; "."; ".."; "a/b"; "#x"; String.make 256 'n' ]

let test_deep_rename_refreshes_handles () =
  (* Move a populated directory tree with the path-keyed implementation:
     every handle below it changes concretely; the wrapper must keep
     serving the same oids. *)
  let _, w = make_pair "hash" in
  let d1 = created (exec w ~ts:1L (Proto.Mkdir (root_oid, "top", sattr_empty))) in
  let d2 = created (exec w ~ts:2L (Proto.Mkdir (d1, "mid", sattr_empty))) in
  let f = created (exec w ~ts:3L (Proto.Create (d2, "leaf", sattr_empty))) in
  (match exec w ~ts:4L (Proto.Write (f, 0, "deep payload")) with
  | Proto.R_attr _ -> ()
  | _ -> Alcotest.fail "write");
  (* Rename the top directory: hash re-keys top/mid/leaf. *)
  (match exec w ~ts:5L (Proto.Rename (root_oid, "top", root_oid, "moved")) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "rename");
  (* The oids still work and the data is intact. *)
  (match exec w ~ts:6L (Proto.Read (f, 0, 100)) with
  | Proto.R_read ("deep payload", _) -> ()
  | _ -> Alcotest.fail "read after deep rename");
  match exec w ~ts:7L (Proto.Readdir d2) with
  | Proto.R_readdir [ ("leaf", o) ] -> Alcotest.(check bool) "same oid" true (o = f)
  | _ -> Alcotest.fail "readdir after deep rename"

let test_capacity_enospc () =
  let _, w = make_pair ~n_objects:4 "inode" in
  (* Slots: 0 = root, 3 free. *)
  ignore (created (exec w ~ts:1L (Proto.Create (root_oid, "a", sattr_empty))));
  ignore (created (exec w ~ts:2L (Proto.Create (root_oid, "b", sattr_empty))));
  ignore (created (exec w ~ts:3L (Proto.Create (root_oid, "c", sattr_empty))));
  (match exec w ~ts:4L (Proto.Create (root_oid, "d", sattr_empty)) with
  | Proto.R_err Enospc -> ()
  | _ -> Alcotest.fail "expected ENOSPC");
  (* Freeing a slot makes creation possible again, with a higher gen. *)
  (match exec w ~ts:5L (Proto.Remove (root_oid, "b")) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "remove");
  let o = created (exec w ~ts:6L (Proto.Create (root_oid, "e", sattr_empty))) in
  Alcotest.(check bool) "gen bumped on reuse" true (o.gen >= 2)

let test_stale_handle_after_reuse () =
  let _, w = make_pair "fat" in
  let a = created (exec w ~ts:1L (Proto.Create (root_oid, "a", sattr_empty))) in
  ignore (exec w ~ts:2L (Proto.Remove (root_oid, "a")));
  let b = created (exec w ~ts:3L (Proto.Create (root_oid, "b", sattr_empty))) in
  Alcotest.(check int) "slot reused" a.index b.index;
  match exec w ~ts:4L (Proto.Getattr a) with
  | Proto.R_err Estale -> ()
  | _ -> Alcotest.fail "stale oid must be ESTALE"

let test_get_obj_reflects_corruption () =
  (* The abstraction function reads the concrete state: silent corruption
     changes the abstract object (and hence its digest), which is exactly
     how the repair machinery notices it.  [S.rot] reaches every
     implementation through its own interface. *)
  Array.iter
    (fun impl ->
      let server, w = make_pair impl in
      let f = created (exec w ~ts:1L (Proto.Create (root_oid, "victim", sattr_empty))) in
      (match exec w ~ts:2L (Proto.Write (f, 0, String.make 64 'v')) with
      | Proto.R_attr _ -> ()
      | _ -> Alcotest.fail "write");
      let objects () = Array.init w.Service.n_objects w.Service.get_obj in
      let before = objects () in
      let prng = Base_util.Prng.create 1L in
      Alcotest.(check int) (impl ^ ": one object damaged") 1 (S.rot server ~prng ~count:1);
      let after = objects () in
      let changed =
        List.filter
          (fun i -> not (String.equal before.(i) after.(i)))
          (List.init w.Service.n_objects Fun.id)
      in
      Alcotest.(check (list int)) (impl ^ ": only the file's abstract value changed") [ f.index ]
        changed)
    Base_workload.Systems.impl_names

let test_timestamps_are_the_agreed_values () =
  let _, w = make_pair "fat" in
  (* FAT's 2-second clock must never leak: the abstract mtime is the agreed
     nondet value, microsecond-exact. *)
  let f = created (exec w ~ts:1_234_567L (Proto.Create (root_oid, "t", sattr_empty))) in
  match exec w ~ts:9L (Proto.Getattr f) with
  | Proto.R_attr a -> Alcotest.(check int64) "exact agreed mtime" 1_234_567L a.mtime
  | _ -> Alcotest.fail "getattr"

let test_write_offset_gap () =
  let _, w = make_pair "fat" in
  let f = created (exec w ~ts:1L (Proto.Create (root_oid, "gap", sattr_empty))) in
  (* Write beyond EOF across a cluster boundary: hole is zero-filled. *)
  (match exec w ~ts:2L (Proto.Write (f, 1000, "XYZ")) with
  | Proto.R_attr a -> Alcotest.(check int) "size" 1003 a.size
  | _ -> Alcotest.fail "write");
  match exec w ~ts:3L (Proto.Read (f, 998, 5)) with
  | Proto.R_read ("\000\000XYZ", _) -> ()
  | Proto.R_read (s, _) -> Alcotest.failf "got %S" s
  | _ -> Alcotest.fail "read"

let suite =
  [
    Alcotest.test_case "staging never visible" `Quick test_staging_never_visible;
    Alcotest.test_case "bad names rejected" `Quick test_bad_names_rejected;
    Alcotest.test_case "deep rename refreshes handles" `Quick test_deep_rename_refreshes_handles;
    Alcotest.test_case "capacity ENOSPC + slot reuse" `Quick test_capacity_enospc;
    Alcotest.test_case "stale handle after reuse" `Quick test_stale_handle_after_reuse;
    Alcotest.test_case "get_obj reflects corruption" `Quick test_get_obj_reflects_corruption;
    Alcotest.test_case "timestamps are the agreed values" `Quick
      test_timestamps_are_the_agreed_values;
    Alcotest.test_case "write across cluster gap" `Quick test_write_offset_gap;
  ]
