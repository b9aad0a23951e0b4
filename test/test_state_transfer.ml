(* Unit tests of the hierarchical state-transfer machinery and the
   copy-on-write object repository, exercised directly (no simulator):
   pruning, self-verification against Byzantine replies, checkpoint
   copy-on-write semantics. *)

module St = Base_core.State_transfer
module Objrepo = Base_core.Objrepo
module Service = Base_core.Service
module Digest = Base_crypto.Digest_t
module Prng = Base_util.Prng

let n_objects = 256

let obj_bytes = 64

let synthetic ~seed =
  let prng = Prng.create seed in
  let store = Array.init n_objects (fun _ -> Bytes.to_string (Prng.bytes prng obj_bytes)) in
  let wrapper =
    {
      Service.name = "synthetic";
      n_objects;
      execute = (fun ~client:_ ~operation:_ ~nondet:_ ~read_only:_ ~modify:_ -> "");
      get_obj = (fun i -> store.(i));
      put_objs = (fun objs -> List.iter (fun (i, v) -> store.(i) <- v) objs);
      restart = (fun () -> ());
      propose_nondet = (fun ~clock_us:_ ~operation:_ -> "");
      check_nondet = (fun ~clock_us:_ ~operation:_ ~nondet:_ -> true);
      oids_of_op = Service.no_footprint;
    }
  in
  (store, Objrepo.create ~wrapper ~branching:8 ())

let mutate store repo prng i =
  Objrepo.modify repo i;
  store.(i) <- Bytes.to_string (Prng.bytes prng obj_bytes)

(* Run a fetch over a synchronous in-process channel against one source,
   optionally mangling the server's replies. *)
let transfer ?(tamper = fun m -> m) ~src ~dst ~seq ~digest () =
  let q = Queue.create () in
  let completed = ref false in
  let fetcher =
    St.start ~repo:dst ~sources:[ 0 ] ~target_seq:seq ~target_digest:digest
      ~send:(fun ~dst:_ m -> Queue.add m q)
      ~on_complete:(fun ~seq:_ ~app_root:_ ~client_rows:_ -> completed := true)
      ()
  in
  let rounds = ref 0 in
  while (not (Queue.is_empty q)) && !rounds < 100_000 do
    incr rounds;
    let m = Queue.pop q in
    match St.serve src m with
    | Some reply -> ignore (St.handle_reply fetcher ~from:0 (tamper reply))
    | None -> ()
  done;
  (!completed, St.stats fetcher)

let checkpoint repo ~seq =
  let root = Objrepo.take_checkpoint repo ~seq ~client_rows:[] in
  (root, Base_bft.Replica.checkpoint_digest ~app_digest:root ~client_rows:[])

let test_identical_states_fetch_nothing () =
  let _, src = synthetic ~seed:1L in
  let _, dst = synthetic ~seed:1L in
  let _, digest = checkpoint src ~seq:1 in
  let completed, stats = transfer ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true completed;
  Alcotest.(check int) "no objects fetched" 0 stats.St.objects_fetched;
  Alcotest.(check int) "no metadata fetched" 0 stats.St.meta_fetched

let test_fetches_only_differences () =
  let store_src, src = synthetic ~seed:1L in
  let _, dst = synthetic ~seed:1L in
  let prng = Prng.create 9L in
  let dirty = [ 3; 77; 200 ] in
  List.iter (fun i -> mutate store_src src prng i) dirty;
  let root, digest = checkpoint src ~seq:1 in
  let completed, stats = transfer ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true completed;
  Alcotest.(check int) "exactly the dirty objects" (List.length dirty) stats.St.objects_fetched;
  Alcotest.(check bool) "dst root converged" true
    (Digest.equal (Objrepo.current_root dst) root)

let test_divergent_destination_repaired () =
  (* Corruption on the destination side (its digests recomputed honestly)
     is found and repaired even though the source never changed. *)
  let _, src = synthetic ~seed:1L in
  let store_dst, dst = synthetic ~seed:1L in
  let root, digest = checkpoint src ~seq:1 in
  (* Corrupt dst concretely, then recompute its digests (the recovery
     traversal). *)
  store_dst.(42) <- String.make obj_bytes '!';
  store_dst.(111) <- String.make obj_bytes '?';
  Objrepo.rebuild_all_digests dst;
  let completed, stats = transfer ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true completed;
  Alcotest.(check int) "both corrupt objects repaired" 2 stats.St.objects_fetched;
  Alcotest.(check bool) "roots equal" true (Digest.equal (Objrepo.current_root dst) root)

let test_byzantine_object_replies_rejected () =
  (* A faulty server sends garbage object bodies: the fetcher must reject
     every one (self-verification) and never complete against it. *)
  let store_src, src = synthetic ~seed:1L in
  let _, dst = synthetic ~seed:1L in
  let prng = Prng.create 5L in
  mutate store_src src prng 10;
  let _, digest = checkpoint src ~seq:1 in
  let tamper = function
    | St.Obj_reply { seq; index; off; total; data } ->
      St.Obj_reply
        { seq; index; off; total; data = String.map (fun c -> Char.chr (Char.code c lxor 1)) data }
    | m -> m
  in
  let completed, stats = transfer ~tamper ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "never completes against liar" false completed;
  Alcotest.(check int) "nothing accepted" 0 stats.St.objects_fetched

let test_byzantine_head_rejected () =
  let store_src, src = synthetic ~seed:1L in
  let _, dst = synthetic ~seed:1L in
  let prng = Prng.create 6L in
  mutate store_src src prng 1;
  let _, digest = checkpoint src ~seq:1 in
  let tamper = function
    | St.Head_reply { seq; app_root = _; client_rows } ->
      St.Head_reply { seq; app_root = Digest.of_string "lie"; client_rows }
    | m -> m
  in
  let completed, _ = transfer ~tamper ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "forged head rejected" false completed

let test_serve_unknown_checkpoint () =
  let _, src = synthetic ~seed:1L in
  ignore (checkpoint src ~seq:1);
  Alcotest.(check bool) "unknown seq unserved" true
    (St.serve src (St.Fetch_head { seq = 99 }) = None)

let test_serve_malformed_coordinates () =
  (* Byzantine fetch requests with out-of-range coordinates: every one
     must be answered [None] — never a crash, never a wrapper upcall with
     an index it was not promised.  (Regression for the taint findings on
     serve's Fetch_meta/Fetch_obj paths.) *)
  let _, src = synthetic ~seed:1L in
  ignore (checkpoint src ~seq:1);
  let unserved m = St.serve src m = None in
  Alcotest.(check bool) "negative meta level" true
    (unserved (St.Fetch_meta { seq = 1; level = -1; index = 0 }));
  Alcotest.(check bool) "negative meta index" true
    (unserved (St.Fetch_meta { seq = 1; level = 0; index = -5 }));
  Alcotest.(check bool) "huge meta level" true
    (unserved (St.Fetch_meta { seq = 1; level = max_int; index = 0 }));
  Alcotest.(check bool) "huge meta index" true
    (unserved (St.Fetch_meta { seq = 1; level = 0; index = max_int }));
  Alcotest.(check bool) "negative object index" true
    (unserved (St.Fetch_obj { seq = 1; index = -1; off = 0; max_bytes = 64 }));
  Alcotest.(check bool) "object index past the repo" true
    (unserved (St.Fetch_obj { seq = 1; index = n_objects; off = 0; max_bytes = 64 }));
  Alcotest.(check bool) "negative offset" true
    (unserved (St.Fetch_obj { seq = 1; index = 0; off = -8; max_bytes = 64 }));
  Alcotest.(check bool) "offset past the object" true
    (unserved (St.Fetch_obj { seq = 1; index = 0; off = obj_bytes + 1; max_bytes = 64 }));
  (* object_at itself is total over the index. *)
  Alcotest.(check bool) "object_at out of range" true
    (Objrepo.object_at src ~seq:1 (-3) = None
    && Objrepo.object_at src ~seq:1 n_objects = None)

let test_cow_checkpoint_values () =
  (* A checkpoint serves the values as of its creation, not current ones. *)
  let store, repo = synthetic ~seed:2L in
  let before = store.(5) in
  ignore (checkpoint repo ~seq:1);
  let prng = Prng.create 7L in
  mutate store repo prng 5;
  Alcotest.(check bool) "cp value is pre-modification" true
    (Objrepo.object_at repo ~seq:1 5 = Some before);
  Alcotest.(check bool) "unmodified object read through" true
    (Objrepo.object_at repo ~seq:1 6 = Some store.(6))

let test_cow_multiple_checkpoints () =
  (* An object modified between two checkpoints has distinct copies. *)
  let store, repo = synthetic ~seed:3L in
  let v1 = store.(9) in
  ignore (checkpoint repo ~seq:1);
  let prng = Prng.create 8L in
  mutate store repo prng 9;
  let v2 = store.(9) in
  ignore (checkpoint repo ~seq:2);
  mutate store repo prng 9;
  Alcotest.(check bool) "cp1 sees v1" true (Objrepo.object_at repo ~seq:1 9 = Some v1);
  Alcotest.(check bool) "cp2 sees v2" true (Objrepo.object_at repo ~seq:2 9 = Some v2);
  (* Discarding below seq 2 frees cp1. *)
  Objrepo.discard_below repo 2;
  Alcotest.(check bool) "cp1 gone" true (Objrepo.object_at repo ~seq:1 9 = None);
  Alcotest.(check bool) "cp2 kept" true (Objrepo.object_at repo ~seq:2 9 = Some v2)

let test_cow_copies_only_once () =
  let store, repo = synthetic ~seed:4L in
  ignore (checkpoint repo ~seq:1);
  let prng = Prng.create 9L in
  let before = (Objrepo.stats repo).Objrepo.objects_copied in
  mutate store repo prng 3;
  mutate store repo prng 3;
  mutate store repo prng 3;
  let after = (Objrepo.stats repo).Objrepo.objects_copied in
  Alcotest.(check int) "one copy per checkpoint interval" 1 (after - before)

let test_meta_traffic_sublinear () =
  (* One dirty object costs a logarithmic number of metadata messages, not
     a full-tree scan. *)
  let store_src, src = synthetic ~seed:1L in
  let _, dst = synthetic ~seed:1L in
  let prng = Prng.create 11L in
  mutate store_src src prng 123;
  let _, digest = checkpoint src ~seq:1 in
  let _, stats = transfer ~src ~dst ~seq:1 ~digest () in
  (* 256 leaves at branching 8 -> 3 interior levels; at most one path. *)
  Alcotest.(check bool)
    (Printf.sprintf "meta messages (%d) follow one path" stats.St.meta_fetched)
    true
    (stats.St.meta_fetched <= 4)

let suite =
  [
    Alcotest.test_case "identical states fetch nothing" `Quick test_identical_states_fetch_nothing;
    Alcotest.test_case "fetches only differences" `Quick test_fetches_only_differences;
    Alcotest.test_case "divergent destination repaired" `Quick test_divergent_destination_repaired;
    Alcotest.test_case "byzantine object replies rejected" `Quick
      test_byzantine_object_replies_rejected;
    Alcotest.test_case "byzantine head rejected" `Quick test_byzantine_head_rejected;
    Alcotest.test_case "unknown checkpoint unserved" `Quick test_serve_unknown_checkpoint;
    Alcotest.test_case "malformed fetch coordinates unserved" `Quick
      test_serve_malformed_coordinates;
    Alcotest.test_case "cow checkpoint values" `Quick test_cow_checkpoint_values;
    Alcotest.test_case "cow multiple checkpoints" `Quick test_cow_multiple_checkpoints;
    Alcotest.test_case "cow copies once per interval" `Quick test_cow_copies_only_once;
    Alcotest.test_case "meta traffic sublinear" `Quick test_meta_traffic_sublinear;
  ]
