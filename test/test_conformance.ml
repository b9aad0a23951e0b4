(* Differential tests of the conformance wrappers against the executable
   abstract specification (nfs_model.ml, a test oracle; lib/ keeps only the
   abstract objects and their encoding): every off-the-shelf implementation,
   once wrapped, must produce byte-identical replies and byte-identical
   abstract states on arbitrary operation sequences — that is the paper's
   conformance claim. *)

open Base_nfs.Nfs_types
module Proto = Base_nfs.Nfs_proto
module Spec = Nfs_model
module Service = Base_core.Service
module Prng = Base_util.Prng

let n_objects = 64

(* A fake drifting clock for the implementations' own (masked) timestamps. *)
let impl_clock seed =
  let c = ref (Int64.mul seed 1_000_003L) in
  fun () ->
    c := Int64.add !c 137L;
    !c

let impls : (string * (seed:int64 -> Base_fs.Server_intf.t)) list =
  [
    ("inode", fun ~seed -> Base_fs.Fs_inode.create (Base_fs.Fs_inode.make ~seed ~now:(impl_clock seed)));
    ("hash", fun ~seed -> Base_fs.Fs_hash.create (Base_fs.Fs_hash.make ~seed ~now:(impl_clock seed)));
    ("log", fun ~seed -> Base_fs.Fs_log.create (Base_fs.Fs_log.make ~seed ~now:(impl_clock seed)));
    ("btree", fun ~seed -> Base_fs.Fs_btree.create (Base_fs.Fs_btree.make ~seed ~now:(impl_clock seed)));
    ("fat", fun ~seed -> Base_fs.Fs_fat.create (Base_fs.Fs_fat.make ~seed ~now:(impl_clock seed)));
  ]

let make_wrapper name ~seed =
  let server = (List.assoc name impls) ~seed in
  Base_wrapper.Conformance.make ~server ~n_objects ()

let wrapper_exec (w : Service.wrapper) ~ts call =
  w.Service.execute ~client:100 ~operation:(Proto.encode_call call)
    ~nondet:(Service.nondet_of_clock ts) ~read_only:false ~modify:ignore

let model_exec model ~ts call = Proto.encode_reply (Spec.execute model ~ts call)

(* Operation name, for failure messages. *)
let call_label : Proto.call -> string = function
  | Getattr _ -> "getattr"
  | Setattr _ -> "setattr"
  | Lookup _ -> "lookup"
  | Readlink _ -> "readlink"
  | Read _ -> "read"
  | Write _ -> "write"
  | Create _ -> "create"
  | Remove _ -> "remove"
  | Rename _ -> "rename"
  | Symlink _ -> "symlink"
  | Mkdir _ -> "mkdir"
  | Rmdir _ -> "rmdir"
  | Readdir _ -> "readdir"
  | Statfs -> "statfs"

(* --- random call generation over the model state --------------------------- *)

let names = [| "a"; "b"; "c"; "file.txt"; "Sub"; "sub"; "z-last"; "0num" |]

let live_oids model ~want =
  let out = ref [] in
  for i = 0 to Spec.n_objects model - 1 do
    match (Spec.slot model i).Spec.obj with
    | Spec.Directory _ when want = `Dir -> out := Spec.oid_at model i :: !out
    | Spec.File _ when want = `File -> out := Spec.oid_at model i :: !out
    | Spec.Symlink _ when want = `Lnk -> out := Spec.oid_at model i :: !out
    | _ -> ()
  done;
  !out

let pick_oid rng model ~want ~fallback =
  match live_oids model ~want with
  | [] -> fallback
  | xs -> List.nth xs (Prng.int rng (List.length xs))

let gen_call rng model =
  let root = root_oid in
  let dir () = pick_oid rng model ~want:`Dir ~fallback:root in
  let file () = pick_oid rng model ~want:`File ~fallback:root in
  let lnk () = pick_oid rng model ~want:`Lnk ~fallback:root in
  let name () = Prng.pick rng names in
  let bogus_oid () = { index = Prng.int rng n_objects; gen = Prng.int rng 3 } in
  let any () =
    match Prng.int rng 4 with
    | 0 -> dir ()
    | 1 -> file ()
    | 2 -> lnk ()
    | _ -> bogus_oid ()
  in
  match Prng.int rng 100 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 ->
    Proto.Create (dir (), name (), { sattr_empty with s_mode = Some 0o640 })
  | 10 | 11 | 12 | 13 | 14 | 15 | 16 | 17 ->
    let data = Bytes.to_string (Prng.bytes rng (Prng.int rng 200)) in
    Proto.Write (file (), Prng.int rng 64, data)
  | 18 | 19 | 20 | 21 | 22 | 23 -> Proto.Mkdir (dir (), name (), sattr_empty)
  | 24 | 25 | 26 | 27 -> Proto.Remove (dir (), name ())
  | 28 | 29 | 30 -> Proto.Rmdir (dir (), name ())
  | 31 | 32 | 33 | 34 | 35 -> Proto.Rename (dir (), name (), dir (), name ())
  | 36 | 37 | 38 -> Proto.Symlink (dir (), name (), "target/" ^ name (), sattr_empty)
  | 39 | 40 -> Proto.Readlink (lnk ())
  | 41 | 42 | 43 | 44 | 45 | 46 | 47 | 48 | 49 | 50 ->
    Proto.Read (file (), Prng.int rng 128, 64)
  | 51 | 52 | 53 | 54 | 55 | 56 | 57 | 58 | 59 | 60 -> Proto.Lookup (dir (), name ())
  | 61 | 62 | 63 | 64 | 65 | 66 | 67 | 68 -> Proto.Getattr (any ())
  | 69 | 70 | 71 | 72 | 73 -> Proto.Readdir (dir ())
  | 74 | 75 | 76 ->
    Proto.Setattr
      ( any (),
        {
          s_mode = (if Prng.bernoulli rng 0.5 then Some (Prng.int rng 0o777) else None);
          s_uid = (if Prng.bernoulli rng 0.5 then Some (Prng.int rng 10) else None);
          s_gid = None;
          s_size = (if Prng.bernoulli rng 0.5 then Some (Prng.int rng 300) else None);
          s_mtime = (if Prng.bernoulli rng 0.5 then Some (Int64.of_int (Prng.int rng 1_000_000)) else None);
        } )
  | 77 | 78 -> Proto.Statfs
  | 79 | 80 | 81 | 82 ->
    (* Deliberately stale/garbage oids. *)
    Proto.Getattr (bogus_oid ())
  | _ ->
    (* Deeper trees: create inside a subdirectory chain. *)
    Proto.Mkdir (dir (), name () ^ string_of_int (Prng.int rng 5), sattr_empty)

(* Run [n] random calls through the model and one wrapper, comparing replies
   after each step and abstract states at the end. *)
let differential_run ~impl ~seed ~n () =
  let rng = Prng.create seed in
  let model = Spec.create ~n_objects in
  let w = make_wrapper impl ~seed in
  for step = 1 to n do
    let call = gen_call rng model in
    let ts = Int64.of_int (step * 1000) in
    let expected = model_exec model ~ts call in
    let got = wrapper_exec w ~ts call in
    if not (String.equal expected got) then
      Alcotest.failf "%s: step %d (%s): reply mismatch\nmodel:   %s\nwrapper: %s" impl step
        (call_label call)
        (Base_util.Hex.encode expected)
        (Base_util.Hex.encode got)
  done;
  (model, w)

let check_states_equal ~impl model (w : Service.wrapper) =
  for i = 0 to n_objects - 1 do
    let expected = Spec.encode_entry (Spec.slot model i) in
    let got = w.Service.get_obj i in
    if not (String.equal expected got) then
      Alcotest.failf "%s: abstract object %d differs" impl i
  done

let test_differential impl () =
  List.iter
    (fun seed ->
      let model, w = differential_run ~impl ~seed ~n:400 () in
      check_states_equal ~impl model w)
    [ 1L; 2L; 3L ]

let test_cross_impl_agreement () =
  (* All four wrapped implementations produce the same abstract state. *)
  let rng = Prng.create 99L in
  let model = Spec.create ~n_objects in
  let ws = List.map (fun (name, _) -> (name, make_wrapper name ~seed:500L)) impls in
  for step = 1 to 300 do
    let call = gen_call rng model in
    let ts = Int64.of_int (step * 777) in
    let expected = model_exec model ~ts call in
    List.iter
      (fun (name, w) ->
        let got = wrapper_exec w ~ts call in
        if not (String.equal expected got) then
          Alcotest.failf "impl %s diverges at step %d (%s)" name step (call_label call))
      ws
  done;
  List.iter (fun (name, w) -> check_states_equal ~impl:name model w) ws

(* The inverse abstraction function: pour the abstract state of a populated
   wrapper into a fresh wrapper running a *different* implementation. *)
let test_put_objs_full impl_src impl_dst () =
  let model, src = differential_run ~impl:impl_src ~seed:11L ~n:300 () in
  let dst = make_wrapper impl_dst ~seed:999L in
  let objs = List.init n_objects (fun i -> (i, src.Service.get_obj i)) in
  dst.Service.put_objs objs;
  check_states_equal ~impl:(impl_src ^ "->" ^ impl_dst) model dst;
  (* And the destination remains a working service. *)
  let ts = 888_888L in
  let call = Proto.Create (root_oid, "fresh", sattr_empty) in
  let expected = model_exec model ~ts call in
  let got = wrapper_exec dst ~ts call in
  Alcotest.(check bool) "op after put_objs" true (String.equal expected got)

(* Incremental repair: run a wrapper to state A, run the model further to
   state B, then put only the differing objects — the wrapper must land
   exactly on B (this is what state transfer does). *)
let repaired_run ~impl =
  let rng = Prng.create 31L in
  let model = Spec.create ~n_objects in
  let w = make_wrapper impl ~seed:3L in
  for step = 1 to 200 do
    let call = gen_call rng model in
    let ts = Int64.of_int (step * 1000) in
    ignore (model_exec model ~ts call);
    ignore (wrapper_exec w ~ts call)
  done;
  let snapshot = Array.init n_objects (fun i -> w.Service.get_obj i) in
  for step = 201 to 320 do
    let call = gen_call rng model in
    ignore (model_exec model ~ts:(Int64.of_int (step * 1000)) call)
  done;
  let diff = ref [] in
  for i = n_objects - 1 downto 0 do
    let want = Spec.encode_entry (Spec.slot model i) in
    if not (String.equal want snapshot.(i)) then diff := (i, want) :: !diff
  done;
  w.Service.put_objs !diff;
  (model, w)

let test_put_objs_diff impl () =
  let model, w = repaired_run ~impl in
  check_states_equal ~impl model w

let abstract_state model = Array.init n_objects (fun i -> Spec.encode_entry (Spec.slot model i))

(* Restart must rebuild the rep (and find the staging directory again)
   both after plain execution and after an incremental put_objs repair. *)
let test_restart_preserves_state impl () =
  List.iter
    (fun (model, w) ->
      w.Service.restart ();
      check_states_equal ~impl model w;
      (* The service keeps working after the restart. *)
      let step ts call =
        let expected = model_exec model ~ts call in
        let got = wrapper_exec w ~ts call in
        Alcotest.(check bool) "op after restart" true (String.equal expected got);
        check_states_equal ~impl model w
      in
      step 999_999L (Proto.Mkdir (root_oid, "after-restart", sattr_empty));
      (* That Mkdir fails when every slot is in use; renaming an existing
         root entry always succeeds, and undoing it with put_objs moves the
         object through the staging directory restart had to find again. *)
      let before = abstract_state model in
      (match (Spec.slot model 0).Spec.obj with
      | Spec.Directory { entries = (name, _) :: _; _ } ->
        step 1_000_999L (Proto.Rename (root_oid, name, root_oid, "renamed"))
      | Spec.Directory _ | Spec.File _ | Spec.Symlink _ | Spec.Null ->
        Alcotest.failf "%s: nothing to rename in the root" impl);
      let after = abstract_state model in
      let undo = ref [] in
      for i = n_objects - 1 downto 0 do
        if not (String.equal before.(i) after.(i)) then undo := (i, before.(i)) :: !undo
      done;
      w.Service.put_objs !undo;
      Array.iteri
        (fun i want ->
          if not (String.equal want (w.Service.get_obj i)) then
            Alcotest.failf "%s: object %d not rolled back after restart" impl i)
        before)
    [ differential_run ~impl ~seed:7L ~n:300 (); repaired_run ~impl ]

let suite =
  let diff_tests =
    List.map
      (fun (name, _) ->
        Alcotest.test_case (Printf.sprintf "differential: %s vs model" name) `Quick
          (test_differential name))
      impls
  in
  let restart_tests =
    List.map
      (fun (name, _) ->
        Alcotest.test_case (Printf.sprintf "restart: %s" name) `Quick
          (test_restart_preserves_state name))
      impls
  in
  let put_tests =
    [
      Alcotest.test_case "put_objs: inode -> hash" `Quick (test_put_objs_full "inode" "hash");
      Alcotest.test_case "put_objs: hash -> btree" `Quick (test_put_objs_full "hash" "btree");
      Alcotest.test_case "put_objs: btree -> log" `Quick (test_put_objs_full "btree" "log");
      Alcotest.test_case "put_objs: log -> fat" `Quick (test_put_objs_full "log" "fat");
      Alcotest.test_case "put_objs: fat -> inode" `Quick (test_put_objs_full "fat" "inode");
    ]
  in
  let diff_put_tests =
    List.map
      (fun (name, _) ->
        Alcotest.test_case (Printf.sprintf "incremental put_objs: %s" name) `Quick
          (test_put_objs_diff name))
      impls
  in
  diff_tests
  @ [ Alcotest.test_case "four implementations agree" `Quick test_cross_impl_agreement ]
  @ restart_tests @ put_tests @ diff_put_tests
