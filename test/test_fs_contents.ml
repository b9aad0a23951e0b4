(* File contents in the string-backed implementations.

   [Server_intf.substr] returns the stored string itself for a whole-file
   read, and [string_splice]/[string_resize] build new contents in one
   allocation.  The pre-overhaul helpers, kept verbatim in
   [Server_intf_ref], are the oracle: the new ones must return the same
   bytes and the same [Efbig] on every input.

   Sharing the stored string with readers is safe only while no
   implementation mutates stored bytes in place: a string a whole-file read
   returned must keep its bytes through later writes, truncations and the
   removal of its file, on every implementation. *)

module S = Base_fs.Server_intf
module Ref = Server_intf_ref
module Gen = QCheck2.Gen

let same_result a b =
  match (a, b) with
  | Ok a, Ok b -> String.equal a b
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

(* [max_size] sits at the write's end ([slack] 0), one byte short of it
   ([slack] -1, [Efbig]) or anywhere above. *)
let agree (base, off, data, slack, count, size) =
  let max_size = off + String.length data + slack in
  same_result (S.string_splice base ~off ~data ~max_size)
    (Ref.string_splice base ~off ~data ~max_size)
  && String.equal (S.substr base ~off ~count) (Ref.substr base ~off ~count)
  && String.equal (S.string_resize base size) (Ref.string_resize base size)

(* Offsets inside the file (overwrites), at its end (appends) and past it
   (holes); empty data; counts and sizes past the end. *)
let gen_case =
  let open Gen in
  let* base = string_size (int_bound 300) in
  let len = String.length base in
  let* off = oneof [ int_bound len; pure len; int_range len (len + 100) ] in
  let* data = string_size (oneof [ pure 0; int_bound 200 ]) in
  let* slack = oneof [ pure 0; pure (-1); int_bound 1000 ] in
  let* count = int_bound (len + 100) in
  let* size = oneof [ pure len; int_bound (len + 100) ] in
  pure (base, off, data, slack, count, size)

let helpers_agree =
  Helpers.qtest ~count:1000 "substr/string_splice/string_resize = reference" gen_case agree

let test_edge_cases () =
  let base = "0123456789" in
  List.iter
    (fun ((_, off, data, slack, count, size) as case) ->
      Alcotest.(check bool)
        (Printf.sprintf "off %d, %d bytes, max_size slack %d, count %d, size %d" off
           (String.length data) slack count size)
        true (agree case))
    [
      (base, 14, "hole", 0, 20, 14) (* a hole, max_size exactly at the end *);
      (base, 3, "mid", 0, 4, 3) (* an overwrite in the middle *);
      (base, 10, "append", 5, 16, 16) (* an append *);
      (base, 4, "", 0, 0, 10) (* empty data, same size *);
      (base, 12, "", 0, 5, 0) (* empty data past the end: a hole *);
      (base, 8, "past", -1, 10, 12) (* one byte past max_size: Efbig *);
      ("", 0, "", 0, 0, 0) (* an empty file *);
    ];
  Alcotest.(check bool) "a whole-file read is the stored string" true
    (S.substr base ~off:0 ~count:64 == base);
  Alcotest.(check bool) "a same-size resize is the stored string" true
    (S.string_resize base 10 == base)

(* --- sharing safety ---------------------------------------------------------- *)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Base_nfs.Nfs_types.err_to_string e)

let clock () =
  let c = ref 0L in
  fun () ->
    c := Int64.add !c 1_000L;
    !c

let shared_impls = [ "inode"; "hash"; "log"; "btree" ]

(* Each whole-file read is taken at a version of the file: its first
   contents, after an overwrite and an append, after a truncation.  Every
   one must keep its bytes through all later updates and the removal; on
   the log-structured implementation they are the [data] of its successive
   node versions. *)
let test_reads_survive_updates () =
  List.iter
    (fun impl ->
      let srv = Base_workload.Systems.make_impl impl ~seed:3L ~now:(clock ()) in
      let dir = srv.S.root () in
      let fh, _ = ok "create" (srv.S.create ~dir ~name:"f" ~mode:0o644 ~uid:1 ~gid:1) in
      let first = String.init 5000 (fun i -> Char.chr (i land 0xff)) in
      ok "write" (srv.S.write ~fh ~off:0 ~data:first);
      let whole () = ok "read" (srv.S.read ~fh ~off:0 ~count:8192) in
      let v1 = whole () in
      if List.mem impl shared_impls then
        Alcotest.(check bool) (impl ^ ": a whole-file read shares the stored string") true
          (whole () == v1);
      ok "overwrite" (srv.S.write ~fh ~off:100 ~data:(String.make 50 'x'));
      ok "append" (srv.S.write ~fh ~off:5000 ~data:"tail");
      let second =
        String.sub first 0 100 ^ String.make 50 'x' ^ String.sub first 150 4850 ^ "tail"
      in
      let v2 = whole () in
      let truncate = { S.c_mode = None; c_uid = None; c_gid = None; c_size = Some 10 } in
      ignore (ok "truncate" (srv.S.setattr ~fh truncate));
      let v3 = whole () in
      ok "remove" (srv.S.remove ~dir ~name:"f");
      List.iter
        (fun (what, got, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s read keeps its bytes" impl what)
            expected got)
        [ ("first", v1, first); ("second", v2, second); ("truncated", v3, String.sub first 0 10) ])
    ("fat" :: shared_impls)

(* --- handles ------------------------------------------------------------------ *)

(* Every spelling of a handle other than the one the server handed out is
   malformed: a missing, empty, extra or changed field, a number with a
   sign, a prefix, a leading zero, a separator or too many digits, another
   tag.  Each must come back [Estale], as must every handle after a
   restart, while the real handle still resolves. *)
let test_malformed_handles () =
  let numeric f = f <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) f in
  let field_variants f =
    if numeric f then
      [ ""; "0" ^ f; "+" ^ f; "-" ^ f; " " ^ f; f ^ "_"; "0x" ^ f; f ^ "0000000000000000000000";
        string_of_int max_int ^ "0"; "abc" ]
    else [ ""; f ^ "0"; String.sub f 0 (String.length f - 1); String.uppercase_ascii f ^ "!" ]
  in
  let variants fh =
    let whole = [ ""; fh ^ ":"; fh ^ ":0"; fh ^ "x"; String.sub fh 0 (String.length fh - 1) ] in
    match String.split_on_char ':' fh with
    | [ tag; a; b ] ->
      let join t a b = String.concat ":" [ t; a; b ] in
      whole
      @ [ tag; tag ^ ":"; tag ^ ":" ^ a; tag ^ ":" ^ a ^ ":"; join "Z" a b; join (tag ^ tag) a b ]
      @ List.map (fun a' -> join tag a' b) (field_variants a)
      @ List.map (fun b' -> join tag a b') (field_variants b)
    | _ -> whole
  in
  List.iter
    (fun impl ->
      let srv = Base_workload.Systems.make_impl impl ~seed:5L ~now:(clock ()) in
      let fh, _ = ok "create" (srv.S.create ~dir:(srv.S.root ()) ~name:"f" ~mode:0o644 ~uid:1 ~gid:1) in
      let estale what fh =
        match srv.S.getattr ~fh with
        | Error Base_nfs.Nfs_types.Estale -> ()
        | Error e -> Alcotest.failf "%s: %S (%s): %s" impl fh what (Base_nfs.Nfs_types.err_to_string e)
        | Ok _ -> Alcotest.failf "%s: %S (%s) resolved" impl fh what
      in
      ignore (ok "the real handle" (srv.S.getattr ~fh));
      List.iter (estale "malformed") (List.filter (fun v -> not (String.equal v fh)) (variants fh));
      srv.S.restart ();
      estale "stale" fh;
      ignore (ok "the root after a restart" (srv.S.getattr ~fh:(srv.S.root ()))))
    ("fat" :: shared_impls)

let suite =
  [
    helpers_agree;
    Alcotest.test_case "holes, overwrites, appends, empty data, Efbig" `Quick test_edge_cases;
    Alcotest.test_case "whole-file reads keep their bytes on all five" `Quick
      test_reads_survive_updates;
    Alcotest.test_case "malformed and stale handles: Estale on all five" `Quick
      test_malformed_handles;
  ]
