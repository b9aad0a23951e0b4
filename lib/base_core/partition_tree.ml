module Digest = Base_crypto.Digest_t

(* [nodes.(0)] is the root level (one node), [nodes.(levels-1)] the leaves.
   Interior node (l, i) covers children (l+1, i*b .. min((i+1)*b, width)-1). *)
type t = { b : int; nodes : Digest.t array array }

(* Widths of each level, root first: e.g. 8 leaves at branching 4 gives
   [1; 2; 8].  The root is always a single node, even for one leaf. *)
let level_widths ~n_leaves ~branching =
  let rec up acc w =
    if w = 1 then acc else up (w :: acc) ((w + branching - 1) / branching)
  in
  1 :: up [] n_leaves

let create ~n_leaves ~branching =
  Base_util.Invariant.require (n_leaves >= 1) "Partition_tree.create: need at least one leaf";
  Base_util.Invariant.require (branching >= 2) "Partition_tree.create: branching must be >= 2";
  let widths = level_widths ~n_leaves ~branching in
  let nodes = Array.of_list (List.map (fun w -> Array.make w Digest.zero) widths) in
  let t = { b = branching; nodes } in
  (* Establish interior digests consistent with all-zero leaves. *)
  for l = Array.length nodes - 2 downto 0 do
    for i = 0 to Array.length nodes.(l) - 1 do
      let first = i * branching in
      let last = min ((i + 1) * branching) (Array.length nodes.(l + 1)) - 1 in
      let ds = List.init (last - first + 1) (fun k -> Digest.raw nodes.(l + 1).(first + k)) in
      nodes.(l).(i) <- Digest.of_list ds
    done
  done;
  t

let levels t = Array.length t.nodes

let width t ~level = Array.length t.nodes.(level)

let node t ~level ~index = t.nodes.(level).(index)

let leaf t i = t.nodes.(levels t - 1).(i)

let root t = t.nodes.(0).(0)

let child_span t ~level ~index =
  Base_util.Invariant.require (level < levels t - 1) "Partition_tree.child_span: leaf level";
  let first = index * t.b in
  let last = min ((index + 1) * t.b) (width t ~level:(level + 1)) - 1 in
  (first, last)

let children t ~level ~index =
  let first, last = child_span t ~level ~index in
  Array.init (last - first + 1) (fun k -> t.nodes.(level + 1).(first + k))

let recompute_node t ~level ~index =
  let first, last = child_span t ~level ~index in
  let ds = List.init (last - first + 1) (fun k -> Digest.raw t.nodes.(level + 1).(first + k)) in
  t.nodes.(level).(index) <- Digest.of_list ds

let set_leaf t i d =
  let leaf_level = levels t - 1 in
  t.nodes.(leaf_level).(i) <- d;
  let idx = ref i in
  for l = leaf_level - 1 downto 0 do
    idx := !idx / t.b;
    recompute_node t ~level:l ~index:!idx
  done

(* Bulk form of [set_leaf]: write every leaf first, then recompute each
   touched interior node once per level, bottom-up.  [set_leaf] in a loop
   re-hashes the shared ancestors once per leaf — O(k log k) node hashes for
   k updates — where one pass over the distinct parents is O(k + interior).
   The resulting digests are identical; only the work is deduplicated.  This
   is the path a post-reboot full rebuild and a checkpoint flush take. *)
let set_leaves t updates =
  match updates with
  | [] -> ()
  | [ (i, d) ] -> set_leaf t i d
  | _ ->
    let leaf_level = levels t - 1 in
    List.iter (fun (i, d) -> t.nodes.(leaf_level).(i) <- d) updates;
    if leaf_level > 0 then begin
      let parents idxs = List.sort_uniq Int.compare (List.map (fun i -> i / t.b) idxs) in
      let touched = ref (parents (List.map fst updates)) in
      for l = leaf_level - 1 downto 0 do
        List.iter (fun i -> recompute_node t ~level:l ~index:i) !touched;
        if l > 0 then touched := parents !touched
      done
    end

let copy t = { b = t.b; nodes = Array.map Array.copy t.nodes }
