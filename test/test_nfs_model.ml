(* Tests of the NFS protocol codecs, the canonical entry encoding of
   [Base_nfs.Abstract_spec], and the executable abstract specification
   itself (nfs_model.ml, the test oracle the wrappers are held to). *)

open Base_nfs.Nfs_types
module Proto = Base_nfs.Nfs_proto
module Spec = Nfs_model
module Gen = QCheck2.Gen

(* --- codec round-trips ---------------------------------------------------------- *)

let gen_oid = Gen.map2 (fun index gen -> { index; gen }) (Gen.int_bound 500) (Gen.int_bound 50)

let gen_sattr =
  let opt g = Gen.option g in
  Gen.map
    (fun ((m, u), (g, (s, t))) ->
      { s_mode = m; s_uid = u; s_gid = g; s_size = s; s_mtime = t })
    (Gen.pair
       (Gen.pair (opt (Gen.int_bound 0o777)) (opt (Gen.int_bound 100)))
       (Gen.pair (opt (Gen.int_bound 100))
          (Gen.pair (opt (Gen.int_bound 10_000)) (opt (Gen.map Int64.of_int Gen.nat)))))

let gen_name = Gen.oneofl [ "a"; "file.txt"; "Z"; "with space"; "x" ]

let gen_call =
  Gen.oneof
    [
      Gen.map (fun o -> Proto.Getattr o) gen_oid;
      Gen.map2 (fun o s -> Proto.Setattr (o, s)) gen_oid gen_sattr;
      Gen.map2 (fun o n -> Proto.Lookup (o, n)) gen_oid gen_name;
      Gen.map (fun o -> Proto.Readlink o) gen_oid;
      Gen.map3 (fun o off c -> Proto.Read (o, off, c)) gen_oid Gen.nat Gen.nat;
      Gen.map3 (fun o off d -> Proto.Write (o, off, d)) gen_oid Gen.nat Gen.string;
      Gen.map3 (fun o n s -> Proto.Create (o, n, s)) gen_oid gen_name gen_sattr;
      Gen.map2 (fun o n -> Proto.Remove (o, n)) gen_oid gen_name;
      Gen.map2
        (fun (so, sn) (dd, dn) -> Proto.Rename (so, sn, dd, dn))
        (Gen.pair gen_oid gen_name) (Gen.pair gen_oid gen_name);
      Gen.map3 (fun o n t -> Proto.Symlink (o, n, t, sattr_empty)) gen_oid gen_name Gen.string;
      Gen.map2 (fun o n -> Proto.Mkdir (o, n, sattr_empty)) gen_oid gen_name;
      Gen.map2 (fun o n -> Proto.Rmdir (o, n)) gen_oid gen_name;
      Gen.map (fun o -> Proto.Readdir o) gen_oid;
      Gen.pure Proto.Statfs;
    ]

let call_roundtrip =
  Helpers.qtest "nfs call encode/decode round-trip" gen_call (fun c ->
      Proto.decode_call (Proto.encode_call c) = c)

let gen_fattr =
  Gen.map3
    (fun ftype (mode, size) fileid ->
      {
        ftype;
        mode;
        nlink = (match ftype with Dir -> 2 | _ -> 1);
        uid = 0;
        gid = 0;
        size;
        fsid = 1;
        fileid;
        atime = 5L;
        mtime = 5L;
        ctime = 7L;
      })
    (Gen.oneofl [ Reg; Dir; Lnk ])
    (Gen.pair (Gen.int_bound 0o777) (Gen.int_bound 100_000))
    (Gen.int_bound 512)

let gen_reply =
  Gen.oneof
    [
      Gen.map (fun e -> Proto.R_err e)
        (Gen.oneofl [ Enoent; Eexist; Enotdir; Eisdir; Einval; Efbig; Enospc; Enotempty; Estale ]);
      Gen.map (fun a -> Proto.R_attr a) gen_fattr;
      Gen.map2 (fun o a -> Proto.R_lookup (o, a)) gen_oid gen_fattr;
      Gen.map (fun s -> Proto.R_readlink s) Gen.string;
      Gen.map2 (fun d a -> Proto.R_read (d, a)) Gen.string gen_fattr;
      Gen.map2 (fun o a -> Proto.R_create (o, a)) gen_oid gen_fattr;
      Gen.pure Proto.R_ok;
      Gen.map (fun entries -> Proto.R_readdir entries) (Gen.list (Gen.pair gen_name gen_oid));
      Gen.map2
        (fun total_slots free_slots -> Proto.R_statfs { total_slots; free_slots })
        (Gen.int_bound 1000) (Gen.int_bound 1000);
    ]

let reply_roundtrip =
  Helpers.qtest "nfs reply encode/decode round-trip" gen_reply (fun r ->
      Proto.decode_reply (Proto.encode_reply r) = r)

let entry_roundtrip =
  let gen_meta =
    Gen.map2
      (fun mode uid -> { Spec.mode; uid; gid = uid; mtime = 3L; ctime = 9L })
      (Gen.int_bound 0o777) (Gen.int_bound 50)
  in
  let gen_obj =
    Gen.oneof
      [
        Gen.pure Spec.Null;
        Gen.map2 (fun meta data -> Spec.File { meta; data }) gen_meta Gen.string;
        Gen.map2
          (fun meta entries ->
            Spec.Directory { meta; entries = List.sort_uniq compare entries })
          gen_meta
          (Gen.list (Gen.pair gen_name gen_oid));
        Gen.map2 (fun meta target -> Spec.Symlink { meta; target }) gen_meta Gen.string;
      ]
  in
  Helpers.qtest "abstract entry encode/decode round-trip"
    (Gen.map2 (fun gen obj -> { Spec.gen; obj }) (Gen.int_bound 100) gen_obj)
    (fun en -> Spec.decode_entry (Spec.encode_entry en) = en)

(* --- model semantics -------------------------------------------------------------- *)

let fresh () = Spec.create ~n_objects:16

let exec m ?(ts = 1000L) c = Spec.execute m ~ts c

let get_create_oid = function
  | Proto.R_create (o, _) -> o
  | r -> Alcotest.failf "expected R_create, got %s" (Base_util.Hex.short (Proto.encode_reply r))

let test_model_create_write_read () =
  let m = fresh () in
  let f = get_create_oid (exec m (Proto.Create (root_oid, "f", sattr_empty))) in
  (match exec m ~ts:2000L (Proto.Write (f, 0, "hello world")) with
  | Proto.R_attr a ->
    Alcotest.(check int) "size" 11 a.size;
    Alcotest.(check int64) "mtime from ts" 2000L a.mtime
  | _ -> Alcotest.fail "write");
  match exec m (Proto.Read (f, 6, 100)) with
  | Proto.R_read (data, _) -> Alcotest.(check string) "read tail" "world" data
  | _ -> Alcotest.fail "read"

let test_model_write_extends_with_zeros () =
  let m = fresh () in
  let f = get_create_oid (exec m (Proto.Create (root_oid, "f", sattr_empty))) in
  ignore (exec m (Proto.Write (f, 4, "x")));
  match exec m (Proto.Read (f, 0, 10)) with
  | Proto.R_read (data, _) -> Alcotest.(check string) "hole zero-filled" "\000\000\000\000x" data
  | _ -> Alcotest.fail "read"

let test_model_oid_reuse_bumps_generation () =
  let m = fresh () in
  let a = get_create_oid (exec m (Proto.Create (root_oid, "a", sattr_empty))) in
  ignore (exec m (Proto.Remove (root_oid, "a")));
  let b = get_create_oid (exec m (Proto.Create (root_oid, "b", sattr_empty))) in
  Alcotest.(check int) "slot reused" a.index b.index;
  Alcotest.(check bool) "generation bumped" true (b.gen > a.gen);
  (* The old oid is now stale. *)
  match exec m (Proto.Getattr a) with
  | Proto.R_err Estale -> ()
  | _ -> Alcotest.fail "expected ESTALE"

let test_model_rename_semantics () =
  let m = fresh () in
  let d1 = get_create_oid (exec m (Proto.Mkdir (root_oid, "d1", sattr_empty))) in
  let d2 = get_create_oid (exec m (Proto.Mkdir (root_oid, "d2", sattr_empty))) in
  let f = get_create_oid (exec m (Proto.Create (d1, "f", sattr_empty))) in
  ignore (exec m (Proto.Write (f, 0, "payload")));
  (* Move between directories. *)
  (match exec m (Proto.Rename (d1, "f", d2, "g")) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "rename");
  (match exec m (Proto.Lookup (d1, "f")) with
  | Proto.R_err Enoent -> ()
  | _ -> Alcotest.fail "gone from source");
  (match exec m (Proto.Lookup (d2, "g")) with
  | Proto.R_lookup (o, _) -> Alcotest.(check bool) "same object" true (o = f)
  | _ -> Alcotest.fail "in dest");
  (* Renaming a directory under itself is rejected. *)
  let sub = get_create_oid (exec m (Proto.Mkdir (d2, "sub", sattr_empty))) in
  ignore sub;
  match exec m (Proto.Rename (root_oid, "d2", sub, "loop")) with
  | Proto.R_err Einval -> ()
  | _ -> Alcotest.fail "rename into own subtree must fail"

let test_model_rename_overwrite_rules () =
  let m = fresh () in
  let f1 = get_create_oid (exec m (Proto.Create (root_oid, "f1", sattr_empty))) in
  ignore f1;
  ignore (exec m (Proto.Create (root_oid, "f2", sattr_empty)));
  let d = get_create_oid (exec m (Proto.Mkdir (root_oid, "d", sattr_empty))) in
  ignore d;
  (* file over file: allowed, target freed. *)
  (match exec m (Proto.Rename (root_oid, "f1", root_oid, "f2")) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "file over file");
  (* file over dir: EISDIR. *)
  (match exec m (Proto.Rename (root_oid, "f2", root_oid, "d")) with
  | Proto.R_err Eisdir -> ()
  | _ -> Alcotest.fail "file over dir");
  (* dir over non-empty dir: ENOTEMPTY. *)
  let d2 = get_create_oid (exec m (Proto.Mkdir (root_oid, "d2", sattr_empty))) in
  ignore (exec m (Proto.Create (d2, "inner", sattr_empty)));
  match exec m (Proto.Rename (root_oid, "d", root_oid, "d2")) with
  | Proto.R_err Enotempty -> ()
  | _ -> Alcotest.fail "dir over non-empty dir"

let test_model_readdir_sorted () =
  let m = fresh () in
  List.iter
    (fun n -> ignore (exec m (Proto.Create (root_oid, n, sattr_empty))))
    [ "zz"; "aa"; "Mm"; "01" ];
  match exec m (Proto.Readdir root_oid) with
  | Proto.R_readdir entries ->
    Alcotest.(check (list string)) "lexicographic" [ "01"; "Mm"; "aa"; "zz" ]
      (List.map fst entries)
  | _ -> Alcotest.fail "readdir"

let test_model_nospc () =
  let m = Spec.create ~n_objects:3 in
  ignore (exec m (Proto.Create (root_oid, "a", sattr_empty)));
  ignore (exec m (Proto.Create (root_oid, "b", sattr_empty)));
  match exec m (Proto.Create (root_oid, "c", sattr_empty)) with
  | Proto.R_err Enospc -> ()
  | _ -> Alcotest.fail "expected ENOSPC"

let test_model_efbig () =
  let m = fresh () in
  let f = get_create_oid (exec m (Proto.Create (root_oid, "f", sattr_empty))) in
  match exec m (Proto.Write (f, max_file_size - 1, "xy")) with
  | Proto.R_err Efbig -> ()
  | _ -> Alcotest.fail "expected EFBIG"

let test_model_name_validation () =
  let m = fresh () in
  List.iter
    (fun bad ->
      match exec m (Proto.Create (root_oid, bad, sattr_empty)) with
      | Proto.R_err Einval -> ()
      | _ -> Alcotest.failf "name %S should be EINVAL" bad)
    [ ""; "."; ".."; "a/b"; "#hidden"; String.make 300 'x' ]

let test_model_modify_hook_fires () =
  (* The modify callback reports every mutated slot before the mutation. *)
  let m = fresh () in
  let touched = ref [] in
  let modify i = touched := i :: !touched in
  (match Spec.execute ~modify m ~ts:1L (Proto.Create (root_oid, "f", sattr_empty)) with
  | Proto.R_create (o, _) ->
    Alcotest.(check bool) "dir + new object reported" true
      (List.mem 0 !touched && List.mem o.index !touched)
  | _ -> Alcotest.fail "create");
  touched := [];
  ignore (Spec.execute ~modify m ~ts:2L (Proto.Readdir root_oid));
  Alcotest.(check (list int)) "read-only reports nothing" [] !touched

let suite =
  [
    call_roundtrip;
    reply_roundtrip;
    entry_roundtrip;
    Alcotest.test_case "create/write/read" `Quick test_model_create_write_read;
    Alcotest.test_case "write extends with zeros" `Quick test_model_write_extends_with_zeros;
    Alcotest.test_case "oid reuse bumps generation" `Quick test_model_oid_reuse_bumps_generation;
    Alcotest.test_case "rename semantics" `Quick test_model_rename_semantics;
    Alcotest.test_case "rename overwrite rules" `Quick test_model_rename_overwrite_rules;
    Alcotest.test_case "readdir sorted" `Quick test_model_readdir_sorted;
    Alcotest.test_case "ENOSPC when array full" `Quick test_model_nospc;
    Alcotest.test_case "EFBIG on oversized write" `Quick test_model_efbig;
    Alcotest.test_case "name validation" `Quick test_model_name_validation;
    Alcotest.test_case "modify hook contract" `Quick test_model_modify_hook_fires;
  ]
