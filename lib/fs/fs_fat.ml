(** See {!module-type:Fs_fat} interface comment: FAT-style layout with
    cluster chains, slot-ordered directories and two-second timestamps. *)

open Base_nfs.Nfs_types
module Prng = Base_util.Prng

let cluster_size = 512

type node = {
  id : int;  (* stable serial: the persistent fileid *)
  mutable kind : ftype;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable size : int;  (* valid bytes of the cluster chain (Reg) *)
  mutable chain : int list;  (* cluster numbers holding the data (Reg) *)
  mutable target : string;  (* symlink target *)
  mutable slots : (string * int) option array;  (* directory slots (Dir) *)
  mutable atime : int64;
  mutable mtime : int64;
  mutable ctime : int64;
}

type t = {
  now : unit -> int64;
  fsid : int;
  mutable clusters : bytes array;  (* the "disk" *)
  mutable fat_free : bool array;  (* free map *)
  mutable cursor : int;  (* next-fit allocation cursor *)
  nodes : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable mount_gen : int;
}

(* FAT keeps two-second timestamps. *)
let clock t = Int64.mul (Int64.div (t.now ()) 2_000_000L) 2_000_000L

let fh_of t id = Printf.sprintf "F:%d:%d" id t.mount_gen

let node_of_fh t fh =
  let sep = Server_intf.handle_sep fh 'F' in
  let id = Server_intf.handle_int fh ~pos:2 ~stop:sep in
  if id >= 0 && Server_intf.handle_int fh ~pos:(sep + 1) ~stop:(String.length fh) = t.mount_gen
  then match Hashtbl.find_opt t.nodes id with Some n -> Ok n | None -> Error Estale
  else Error Estale

(* --- cluster management ------------------------------------------------------ *)

let grow_disk t =
  let old = Array.length t.clusters in
  let clusters = Array.init (2 * old) (fun i -> if i < old then t.clusters.(i) else Bytes.create cluster_size) in
  let fat_free = Array.init (2 * old) (fun i -> if i < old then t.fat_free.(i) else true) in
  t.clusters <- clusters;
  t.fat_free <- fat_free

let rec alloc_cluster t =
  let n = Array.length t.fat_free in
  let rec scan tried i =
    if tried >= n then None else if t.fat_free.(i) then Some i else scan (tried + 1) ((i + 1) mod n)
  in
  match scan 0 t.cursor with
  | Some c ->
    t.fat_free.(c) <- false;
    t.cursor <- (c + 1) mod n;
    Bytes.fill t.clusters.(c) 0 cluster_size '\000';
    c
  | None ->
    grow_disk t;
    alloc_cluster t

let free_chain t n =
  List.iter (fun c -> t.fat_free.(c) <- true) n.chain;
  n.chain <- [];
  n.size <- 0

let read_chain t n ~off ~count =
  let len = n.size in
  let off = min off len in
  let count = min count (len - off) in
  let out = Bytes.create count in
  let chain = Array.of_list n.chain in
  for k = 0 to count - 1 do
    let pos = off + k in
    let c = chain.(pos / cluster_size) in
    Bytes.set out k (Bytes.get t.clusters.(c) (pos mod cluster_size))
  done;
  Bytes.unsafe_to_string out

let write_chain t n ~off ~data =
  let new_len = max n.size (off + String.length data) in
  let needed = (new_len + cluster_size - 1) / cluster_size in
  while List.length n.chain < needed do
    n.chain <- n.chain @ [ alloc_cluster t ]
  done;
  let chain = Array.of_list n.chain in
  String.iteri
    (fun k ch ->
      let pos = off + k in
      Bytes.set t.clusters.(chain.(pos / cluster_size)) (pos mod cluster_size) ch)
    data;
  n.size <- new_len

let resize_chain t n size =
  if size < n.size then begin
    let needed = (size + cluster_size - 1) / cluster_size in
    let keep = ref [] in
    List.iteri (fun i c -> if i < needed then keep := c :: !keep else t.fat_free.(c) <- true) n.chain;
    n.chain <- List.rev !keep;
    n.size <- size
  end
  else if size > n.size then begin
    (* Zero-extend through the write path. *)
    let grow_from = n.size in
    n.size <- n.size;
    write_chain t n ~off:grow_from ~data:(String.make (size - grow_from) '\000')
  end

(* --- directory slots ---------------------------------------------------------- *)

let slot_find n name =
  let found = ref None in
  Array.iteri
    (fun i s ->
      match s with
      | Some (nm, id) when String.equal nm name && !found = None -> found := Some (i, id)
      | _ -> ())
    n.slots;
  !found

let slot_insert n name id =
  let rec find_free i =
    if i >= Array.length n.slots then begin
      let bigger = Array.make (2 * Array.length n.slots) None in
      Array.blit n.slots 0 bigger 0 (Array.length n.slots);
      n.slots <- bigger;
      find_free i
    end
    else if n.slots.(i) = None then i
    else find_free (i + 1)
  in
  n.slots.(find_free 0) <- Some (name, id)

let slot_remove n name =
  match slot_find n name with
  | Some (i, _) -> n.slots.(i) <- None
  | None -> ()

let listing n =
  Array.to_list n.slots |> List.filter_map Fun.id

(* --- construction -------------------------------------------------------------- *)

let fresh t kind ~mode ~uid ~gid =
  let id = t.next_id in
  t.next_id <- id + 1;
  let now = clock t in
  let n =
    {
      id;
      kind;
      mode;
      uid;
      gid;
      size = 0;
      chain = [];
      target = "";
      slots = Array.make 8 None;
      atime = now;
      mtime = now;
      ctime = now;
    }
  in
  Hashtbl.replace t.nodes id n;
  n

let make ~seed ~now =
  let prng = Prng.create seed in
  let t =
    {
      now;
      fsid = 0xF000 + Prng.int prng 0xfff;
      clusters = Array.init 64 (fun _ -> Bytes.create cluster_size);
      fat_free = Array.make 64 true;
      cursor = Prng.int prng 64;
      nodes = Hashtbl.create 128;
      next_id = 3;
      mount_gen = Prng.int prng 10_000;
    }
  in
  let root = fresh t Dir ~mode:0o755 ~uid:0 ~gid:0 in
  assert (root.id = 3);
  t

let attr_of t (n : node) =
  let size =
    match n.kind with
    | Reg -> n.size
    | Lnk -> String.length n.target
    | Dir -> cluster_size * (1 + (Array.length n.slots / 16))
  in
  {
    Server_intf.a_ftype = n.kind;
    a_mode = n.mode;
    a_uid = n.uid;
    a_gid = n.gid;
    a_size = size;
    a_fsid = t.fsid;
    a_fileid = n.id;
    a_atime = n.atime;
    a_mtime = n.mtime;
    a_ctime = n.ctime;
  }

let with_dir t fh k =
  match node_of_fh t fh with
  | Error e -> Error e
  | Ok n -> if n.kind <> Dir then Error Enotdir else k n

let touch t n =
  n.mtime <- clock t;
  n.ctime <- n.mtime

let add t ~dir ~name kind ~mode ~uid ~gid ~target =
  with_dir t dir (fun dn ->
      match slot_find dn name with
      | Some _ -> Error Eexist
      | None ->
        let n = fresh t kind ~mode ~uid ~gid in
        n.target <- target;
        slot_insert dn name n.id;
        touch t dn;
        Ok (fh_of t n.id, attr_of t n))

let delete_node t (n : node) =
  free_chain t n;
  Hashtbl.remove t.nodes n.id

let create t =
  {
    Server_intf.name = "fatfs(cluster)";
    root = (fun () -> fh_of t 3);
    lookup =
      (fun ~dir ~name ->
        with_dir t dir (fun dn ->
            match slot_find dn name with
            | None -> Error Enoent
            | Some (_, id) -> (
              match Hashtbl.find_opt t.nodes id with
              | Some n -> Ok (fh_of t id, attr_of t n)
              | None -> Error Eio)));
    getattr =
      (fun ~fh -> match node_of_fh t fh with Error e -> Error e | Ok n -> Ok (attr_of t n));
    setattr =
      (fun ~fh (c : Server_intf.csattr) ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          Option.iter (fun m -> n.mode <- m) c.c_mode;
          Option.iter (fun u -> n.uid <- u) c.c_uid;
          Option.iter (fun g -> n.gid <- g) c.c_gid;
          n.ctime <- clock t;
          match (c.c_size, n.kind) with
          | None, _ -> Ok (attr_of t n)
          | Some size, Reg ->
            resize_chain t n size;
            touch t n;
            Ok (attr_of t n)
          | Some _, Dir -> Error Eisdir
          | Some _, Lnk -> Error Einval));
    read =
      (fun ~fh ~off ~count ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          match n.kind with
          | Reg ->
            n.atime <- clock t;
            Ok (read_chain t n ~off ~count)
          | Dir -> Error Eisdir
          | Lnk -> Error Einval));
    write =
      (fun ~fh ~off ~data ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          match n.kind with
          | Reg ->
            if off + String.length data > max_file_size then Error Efbig
            else begin
              write_chain t n ~off ~data;
              touch t n;
              Ok ()
            end
          | Dir -> Error Eisdir
          | Lnk -> Error Einval));
    create =
      (fun ~dir ~name ~mode ~uid ~gid -> add t ~dir ~name Reg ~mode ~uid ~gid ~target:"");
    mkdir = (fun ~dir ~name ~mode ~uid ~gid -> add t ~dir ~name Dir ~mode ~uid ~gid ~target:"");
    symlink =
      (fun ~dir ~name ~target ~mode ~uid ~gid -> add t ~dir ~name Lnk ~mode ~uid ~gid ~target);
    readlink =
      (fun ~fh ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> if n.kind = Lnk then Ok n.target else Error Einval);
    remove =
      (fun ~dir ~name ->
        with_dir t dir (fun dn ->
            match slot_find dn name with
            | None -> Error Enoent
            | Some (_, id) -> (
              match Hashtbl.find_opt t.nodes id with
              | None -> Error Eio
              | Some n ->
                if n.kind = Dir then Error Eisdir
                else begin
                  slot_remove dn name;
                  delete_node t n;
                  touch t dn;
                  Ok ()
                end)));
    rmdir =
      (fun ~dir ~name ->
        with_dir t dir (fun dn ->
            match slot_find dn name with
            | None -> Error Enoent
            | Some (_, id) -> (
              match Hashtbl.find_opt t.nodes id with
              | None -> Error Eio
              | Some n ->
                if n.kind <> Dir then Error Enotdir
                else if listing n <> [] then Error Enotempty
                else begin
                  slot_remove dn name;
                  delete_node t n;
                  touch t dn;
                  Ok ()
                end)));
    rename =
      (fun ~sdir ~sname ~ddir ~dname ->
        with_dir t sdir (fun sdn ->
            with_dir t ddir (fun ddn ->
                match slot_find sdn sname with
                | None -> Error Enoent
                | Some (_, id) ->
                  if sdn.id = ddn.id && String.equal sname dname then Ok ()
                  else begin
                    (match slot_find ddn dname with
                    | Some (_, victim_id) -> (
                      slot_remove ddn dname;
                      match Hashtbl.find_opt t.nodes victim_id with
                      | Some victim -> delete_node t victim
                      | None -> ())
                    | None -> ());
                    slot_remove sdn sname;
                    slot_insert ddn dname id;
                    touch t sdn;
                    touch t ddn;
                    Ok ()
                  end)));
    readdir =
      (fun ~dir ->
        with_dir t dir (fun dn ->
            (* Slot order: creation order with holes reused — FAT style. *)
            Ok (List.map (fun (name, id) -> (name, fh_of t id)) (listing dn))));
    identity =
      (fun ~fh -> match node_of_fh t fh with Error e -> Error e | Ok n -> Ok (t.fsid, n.id));
    restart = (fun () -> t.mount_gen <- t.mount_gen + 1);
  }
