(* Property tests for the state-partition tree (Section 2.2): the tree's
   whole job is to let a recovering replica find exactly the out-of-date
   partitions by digest comparison, so the properties pinned here are
   (a) a diff-descent between two trees visits precisely the partitions
   covering the mutated leaves, (b) any leaf tamper changes the root and
   restoring the leaf restores it, and (c) a fetch-and-verify descent
   rebuilds a root-equal tree while fetching only the differing leaves. *)

module PT = Base_core.Partition_tree
module Digest = Base_crypto.Digest_t
module Prng = Base_util.Prng

let shapes = [ (8, 2); (27, 3); (64, 4); (100, 4); (1, 2); (5, 3) ]

let obj_digest tag i gen = Digest.of_string (Printf.sprintf "%s-%d-g%d" tag i gen)

let populated ~n_leaves ~branching =
  let t = PT.create ~n_leaves ~branching in
  for i = 0 to n_leaves - 1 do
    PT.set_leaves t [ (i, obj_digest "obj" i 0) ]
  done;
  t

(* Diff-descent: walk both trees from the root, descending only into
   partitions whose digests differ; return the differing leaf set. *)
let diff_leaves a b =
  let differ = ref [] in
  let leaf_level = PT.levels a - 1 in
  let rec descend level index =
    if not (Digest.equal (PT.node a ~level ~index) (PT.node b ~level ~index)) then
      if level = leaf_level then differ := index :: !differ
      else
        let first, last = PT.child_span a ~level ~index in
        for i = first to last do
          descend (level + 1) i
        done
  in
  descend 0 0;
  List.sort Int.compare !differ

let sorted_uniq l = List.sort_uniq Int.compare l

let test_diff_descent_finds_exactly_mutated () =
  let rng = Prng.create 0x5EEDL in
  List.iter
    (fun (n_leaves, branching) ->
      for _round = 1 to 20 do
        let a = populated ~n_leaves ~branching in
        let b = PT.copy a in
        (* Mutate a random subset of b's leaves. *)
        let n_mut = Prng.int rng (max 1 (n_leaves / 2)) in
        let mutated = ref [] in
        for _ = 1 to n_mut do
          let i = Prng.int rng n_leaves in
          mutated := i :: !mutated;
          PT.set_leaves b [ (i, obj_digest "obj" i 1) ]
        done;
        let expected = sorted_uniq !mutated in
        Alcotest.(check (list int))
          (Printf.sprintf "diff-descent %dx%d finds the mutated leaves" n_leaves
             branching)
          expected (diff_leaves a b)
      done)
    shapes

let test_no_diff_no_descent () =
  List.iter
    (fun (n_leaves, branching) ->
      let a = populated ~n_leaves ~branching in
      let b = PT.copy a in
      Alcotest.(check bool) "copies are root-equal" true (Digest.equal (PT.root a) (PT.root b));
      Alcotest.(check (list int)) "no differing leaves" [] (diff_leaves a b))
    shapes

let test_tamper_changes_root () =
  let rng = Prng.create 0x7A3FL in
  List.iter
    (fun (n_leaves, branching) ->
      let t = populated ~n_leaves ~branching in
      let before = PT.root t in
      for _ = 1 to min n_leaves 16 do
        let i = Prng.int rng n_leaves in
        let orig = PT.leaf t i in
        PT.set_leaves t [ (i, Digest.of_string (Printf.sprintf "tampered-%d" i)) ];
        Alcotest.(check bool)
          (Printf.sprintf "tampering leaf %d/%d changes the root" i n_leaves)
          false
          (Digest.equal before (PT.root t));
        PT.set_leaves t [ (i, orig) ];
        Alcotest.(check bool)
          (Printf.sprintf "restoring leaf %d restores the root" i)
          true
          (Digest.equal before (PT.root t))
      done)
    shapes

(* Fetch-and-verify: [dst] brings itself up to date against [src] by
   descending only into differing partitions and fetching the differing
   leaves — counting the fetches to pin the bandwidth claim. *)
let sync ~src ~dst =
  let fetched = ref 0 in
  let leaf_level = PT.levels src - 1 in
  let rec descend level index =
    if not (Digest.equal (PT.node src ~level ~index) (PT.node dst ~level ~index))
    then
      if level = leaf_level then begin
        incr fetched;
        PT.set_leaves dst [ (index, PT.leaf src index) ]
      end
      else
        let first, last = PT.child_span src ~level ~index in
        for i = first to last do
          descend (level + 1) i
        done
  in
  descend 0 0;
  !fetched

let test_fetch_and_verify_sync () =
  let rng = Prng.create 0xCAFEL in
  List.iter
    (fun (n_leaves, branching) ->
      for _round = 1 to 20 do
        let src = populated ~n_leaves ~branching in
        let dst = PT.copy src in
        (* Drift: the source moves on for a subset of objects, the
           destination independently corrupts a few of its own. *)
        let n_drift = Prng.int rng (max 1 n_leaves) in
        let touched = ref [] in
        for _ = 1 to n_drift do
          let i = Prng.int rng n_leaves in
          touched := i :: !touched;
          PT.set_leaves src [ (i, obj_digest "obj" i 2) ]
        done;
        for _ = 1 to 1 + Prng.int rng 3 do
          let i = Prng.int rng n_leaves in
          touched := i :: !touched;
          PT.set_leaves dst [ (i, Digest.of_string (Printf.sprintf "corrupt-%d" i)) ]
        done;
        let n_diff = List.length (diff_leaves src dst) in
        let fetched = sync ~src ~dst in
        Alcotest.(check bool)
          (Printf.sprintf "sync %dx%d yields a root-equal tree" n_leaves branching)
          true (Digest.equal (PT.root src) (PT.root dst));
        Alcotest.(check int) "fetches exactly the differing leaves" n_diff fetched;
        Alcotest.(check bool) "fetched no more than it touched" true
          (fetched <= List.length (sorted_uniq !touched))
      done)
    shapes

let test_interior_nodes_consistent () =
  (* children/node agree: every interior digest is over exactly its
     children's digests, so two trees with equal children arrays at a level
     have equal nodes one level up. *)
  List.iter
    (fun (n_leaves, branching) ->
      let t = populated ~n_leaves ~branching in
      let leaf_level = PT.levels t - 1 in
      for level = 0 to leaf_level - 1 do
        for index = 0 to PT.width t ~level - 1 do
          let kids = PT.children t ~level ~index in
          let first, last = PT.child_span t ~level ~index in
          Alcotest.(check int)
            (Printf.sprintf "span matches children at (%d,%d)" level index)
            (Array.length kids)
            (last - first + 1);
          Array.iteri
            (fun k kid ->
              Alcotest.(check bool) "child digest matches node at level+1" true
                (Digest.equal kid (PT.node t ~level:(level + 1) ~index:(first + k))))
            kids
        done
      done)
    shapes

(* Differential: the bulk [set_leaves] (one recompute per touched interior
   node) must produce a tree node-for-node identical to the sequential
   fold of one-leaf updates (each re-hashing its whole path) it replaces —
   including duplicate indices, where the last write wins in both. *)
let test_bulk_matches_sequential () =
  let rng = Prng.create 0xB01DL in
  List.iter
    (fun (n_leaves, branching) ->
      for round = 1 to 25 do
        let bulk = populated ~n_leaves ~branching in
        let seq = PT.copy bulk in
        let n_upd = 1 + Prng.int rng (2 * n_leaves) in
        let updates =
          List.init n_upd (fun k ->
              (* Prng.int n_leaves can repeat: duplicates exercised on purpose. *)
              (Prng.int rng n_leaves, obj_digest "bulk" k round))
        in
        PT.set_leaves bulk updates;
        List.iter (fun (i, d) -> PT.set_leaves seq [ (i, d) ]) updates;
        for level = 0 to PT.levels bulk - 1 do
          for index = 0 to PT.width bulk ~level - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "bulk == sequential at (%d,%d), shape %dx%d" level index
                 n_leaves branching)
              true
              (Digest.equal (PT.node bulk ~level ~index) (PT.node seq ~level ~index))
          done
        done
      done)
    shapes;
  (* Degenerate arguments: empty and singleton lists. *)
  let t = populated ~n_leaves:8 ~branching:2 in
  let before = PT.root t in
  PT.set_leaves t [];
  Alcotest.(check bool) "empty update is a no-op" true (Digest.equal before (PT.root t));
  PT.set_leaves t [ (3, obj_digest "one" 3 9) ];
  let u = populated ~n_leaves:8 ~branching:2 in
  (* A duplicated entry takes the bulk path. *)
  PT.set_leaves u [ (3, obj_digest "one" 3 9); (3, obj_digest "one" 3 9) ];
  Alcotest.(check bool) "singleton matches the bulk path" true
    (Digest.equal (PT.root t) (PT.root u))

let suite =
  [
    Alcotest.test_case "diff-descent finds exactly the mutated leaves" `Quick
      test_diff_descent_finds_exactly_mutated;
    Alcotest.test_case "bulk set_leaves matches the sequential fold" `Quick
      test_bulk_matches_sequential;
    Alcotest.test_case "equal trees have an empty diff" `Quick test_no_diff_no_descent;
    Alcotest.test_case "leaf tamper flips the root (and back)" `Quick
      test_tamper_changes_root;
    Alcotest.test_case "fetch-and-verify installs a root-equal tree" `Quick
      test_fetch_and_verify_sync;
    Alcotest.test_case "interior nodes cover their child spans" `Quick
      test_interior_nodes_consistent;
  ]
