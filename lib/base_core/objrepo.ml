module Digest = Base_crypto.Digest_t

type checkpoint = {
  seq : int;
  tree : Partition_tree.t;
  copies : (int, string) Hashtbl.t;
  client_rows : (int * int64 * string) list;
}

type cow_stats = {
  mutable objects_copied : int;
  mutable bytes_copied : int;
  mutable digests_recomputed : int;
}

type t = {
  wrapper : Service.wrapper;
  tree : Partition_tree.t;
  dirty : (int, unit) Hashtbl.t;
  mutable cps : checkpoint list;  (* oldest first *)
  stats : cow_stats;
  (* Digest-keyed leaf cache: object values this replica has held before,
     keyed by the raw leaf digest (which covers the object index, so an
     entry can only ever hit on the object it was cached for).  Entries are
     inserted on copy-on-write [modify] (the pre-modification value under
     its pre-modification digest) and on [install] (fetched values), and
     evicted FIFO at [cache_cap].  State transfer consults it so a
     certified leaf whose value passed through this replica — the common
     case when proactive recovery rolls a loaded replica back to the last
     certified checkpoint — installs without a network fetch. *)
  cache : (string, string) Hashtbl.t;
  cache_fifo : string Queue.t;
  cache_cap : int;
}

let leaf_update t i =
  let data = t.wrapper.Service.get_obj i in
  t.stats.digests_recomputed <- t.stats.digests_recomputed + 1;
  (i, Service.object_digest i data)

let create ?(cache_objs = 256) ~wrapper ~branching () =
  let t =
    {
      wrapper;
      tree = Partition_tree.create ~n_leaves:wrapper.Service.n_objects ~branching;
      dirty = Hashtbl.create 64;
      cps = [];
      stats = { objects_copied = 0; bytes_copied = 0; digests_recomputed = 0 };
      cache = Hashtbl.create 64;
      cache_fifo = Queue.create ();
      cache_cap = max 0 cache_objs;
    }
  in
  Partition_tree.set_leaves t.tree (List.init wrapper.Service.n_objects (leaf_update t));
  t

let n_objects t = t.wrapper.Service.n_objects

let cache_put t digest data =
  if t.cache_cap > 0 then begin
    let k = Digest.raw digest in
    if not (Hashtbl.mem t.cache k) then begin
      Hashtbl.replace t.cache k data;
      Queue.add k t.cache_fifo;
      if Queue.length t.cache_fifo > t.cache_cap then
        Hashtbl.remove t.cache (Queue.pop t.cache_fifo)
    end
  end

let cache_find t digest = Hashtbl.find_opt t.cache (Digest.raw digest)

(* Preserve the current value of object [i] before it is overwritten —
   by an execution upcall ([modify]) or a state-transfer install alike.
   Every checkpoint snapshot without its own copy of [i] reads through to
   the current value, so it needs a copy now; and the value goes into the
   leaf cache under its pre-overwrite digest — but only while the tree
   leaf is clean, because a dirty leaf's digest no longer describes the
   current value.  This is what lets a later state transfer roll this
   object back to a checkpointed value without refetching it. *)
let preserve_current t i =
  if t.cache_cap > 0 && not (Hashtbl.mem t.dirty i) then
    cache_put t (Partition_tree.leaf t.tree i) (t.wrapper.Service.get_obj i);
  List.iter
    (fun cp ->
      if not (Hashtbl.mem cp.copies i) then begin
        let v = t.wrapper.Service.get_obj i in
        Hashtbl.replace cp.copies i v;
        t.stats.objects_copied <- t.stats.objects_copied + 1;
        t.stats.bytes_copied <- t.stats.bytes_copied + String.length v
      end)
    t.cps

let modify t i =
  Base_util.Invariant.require
    (i >= 0 && i < n_objects t)
    "Objrepo.modify: bad object index";
  preserve_current t i;
  Hashtbl.replace t.dirty i ()

let flush_dirty t =
  Hashtbl.fold (fun i () acc -> i :: acc) t.dirty []
  |> List.sort Int.compare
  |> List.map (leaf_update t)
  |> Partition_tree.set_leaves t.tree;
  Hashtbl.reset t.dirty

let take_checkpoint t ~seq ~client_rows =
  flush_dirty t;
  let snapshot =
    { seq; tree = Partition_tree.copy t.tree; copies = Hashtbl.create 16; client_rows }
  in
  (* Replace any previous checkpoint at the same seqno (re-checkpointing
     after a state transfer lands on an already-known boundary) and keep the
     list sorted: a rollback transfer can register a checkpoint older than
     ones already held. *)
  t.cps <-
    List.sort
      (fun a b -> Int.compare a.seq b.seq)
      (snapshot :: List.filter (fun cp -> cp.seq <> seq) t.cps);
  Partition_tree.root snapshot.tree

let discard_below t seq = t.cps <- List.filter (fun cp -> cp.seq >= seq) t.cps

let find_checkpoint t ~seq = List.find_opt (fun cp -> cp.seq = seq) t.cps

(* Total over the index: [i] typically arrives off the wire (a FETCH for
   this checkpoint), so an out-of-range request answers [None] rather than
   letting the wrapper see an index it never promised to handle. *)
let object_at t ~seq i =
  if i < 0 || i >= n_objects t then None
  else
    match find_checkpoint t ~seq with
    | None -> None
    | Some cp -> (
      match Hashtbl.find_opt cp.copies i with
      | Some v -> Some v
      | None -> Some (t.wrapper.Service.get_obj i))

let current_tree t =
  flush_dirty t;
  t.tree

let current_root t = Partition_tree.root (current_tree t)

let install t objs =
  (* A rollback install overwrites values that existing snapshots (taken at
     higher seqnos, still served to other fetchers) read through to: save
     those copies first, exactly as [modify] would, or the install silently
     corrupts every snapshot without its own copy. *)
  List.iter (fun (i, _) -> preserve_current t i) objs;
  t.wrapper.Service.put_objs objs;
  Partition_tree.set_leaves t.tree
    (List.map
       (fun (i, data) ->
         let d = Service.object_digest i data in
         (* Fetched values go straight into the leaf cache: a later recovery
            that needs this same certified value again skips the refetch. *)
         cache_put t d data;
         (i, d))
       objs);
  List.iter (fun (i, _) -> Hashtbl.remove t.dirty i) objs

let rebuild_all_digests t =
  Hashtbl.reset t.dirty;
  Partition_tree.set_leaves t.tree (List.init (n_objects t) (leaf_update t))

let stats t = t.stats
