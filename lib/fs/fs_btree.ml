(** "CatFS": a catalogue-based file system (HFS-flavoured).

    A single ordered catalogue maps [(parent id, name)] keys to child ids;
    node bodies live in a separate table.  Quirks:
    - node ids are recycled smallest-first, so fileids are reused quickly;
    - readdir is ordered case-insensitively (then case-sensitively), unlike
      the abstract spec's plain lexicographic order;
    - handles embed a session nonce and go stale on restart;
    - the catalogue clock ticks in whole milliseconds. *)

open Base_nfs.Nfs_types
module Prng = Base_util.Prng

module Key = struct
  type t = int * string

  (* Case-insensitive order, case-sensitive tiebreak: the catalogue's
     on-disk collation. *)
  let compare (p1, n1) (p2, n2) =
    match Int.compare p1 p2 with
    | 0 -> (
      match String.compare (String.lowercase_ascii n1) (String.lowercase_ascii n2) with
      | 0 -> String.compare n1 n2
      | c -> c)
    | c -> c
end

module Catalogue = Map.Make (Key)

type node = {
  id : int;
  mutable kind : ftype;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable data : string;
  mutable atime : int64;
  mutable mtime : int64;
  mutable ctime : int64;
  mutable parent : int;  (* catalogue threading *)
  mutable name : string;
}

type t = {
  now : unit -> int64;
  fsid : int;
  mutable catalogue : int Catalogue.t;
  nodes : (int, node) Hashtbl.t;
  mutable free_ids : int list;  (* kept sorted ascending: smallest reused first *)
  mutable next_id : int;
  mutable session : string;
  prng : Prng.t;
}

let clock t = Int64.mul (Int64.div (t.now ()) 1000L) 1000L (* millisecond granularity *)

let fh_of t id = Printf.sprintf "B:%d:%s" id t.session

let node_of_fh t fh =
  let sep = Server_intf.handle_sep fh 'B' in
  let id = Server_intf.handle_int fh ~pos:2 ~stop:sep in
  if id >= 0 && Server_intf.handle_tail_is fh ~pos:(sep + 1) t.session then
    match Hashtbl.find_opt t.nodes id with Some n -> Ok n | None -> Error Estale
  else Error Estale

let alloc_id t =
  match t.free_ids with
  | id :: rest ->
    t.free_ids <- rest;
    id
  | [] ->
    let id = t.next_id in
    t.next_id <- id + 1;
    id

let release_id t id = t.free_ids <- List.sort Int.compare (id :: t.free_ids)

let attr_of t (n : node) =
  let size =
    match n.kind with Reg | Lnk -> String.length n.data | Dir -> 4096
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

let children t dir_id =
  (* Range scan over the catalogue: keys (dir_id, * ) in collation order. *)
  Catalogue.fold
    (fun (p, name) id acc -> if p = dir_id then (name, id) :: acc else acc)
    t.catalogue []
  |> List.rev

let make ~seed ~now =
  let prng = Prng.create seed in
  let t =
    {
      now;
      fsid = 0x8000 + Prng.int prng 0x7fff;
      catalogue = Catalogue.empty;
      nodes = Hashtbl.create 256;
      free_ids = [];
      next_id = 3;
      session = Base_util.Hex.encode (Bytes.to_string (Prng.bytes prng 3));
      prng;
    }
  in
  let now0 = clock t in
  Hashtbl.replace t.nodes 2
    {
      id = 2;
      kind = Dir;
      mode = 0o755;
      uid = 0;
      gid = 0;
      data = "";
      atime = now0;
      mtime = now0;
      ctime = now0;
      parent = 2;
      name = "";
    };
  t

let fresh t kind ~mode ~uid ~gid ~data ~parent ~name =
  let id = alloc_id t in
  let now = clock t in
  let n =
    { id; kind; mode; uid; gid; data; atime = now; mtime = now; ctime = now; parent; name }
  in
  Hashtbl.replace t.nodes id n;
  n

let with_dir t fh k =
  match node_of_fh t fh with
  | Error e -> Error e
  | Ok n -> if n.kind <> Dir then Error Enotdir else k n

let touch t (n : node) =
  n.mtime <- clock t;
  n.ctime <- n.mtime

let add t ~dir ~name kind ~mode ~uid ~gid ~data =
    with_dir t dir (fun dn ->
        if Catalogue.mem (dn.id, name) t.catalogue then Error Eexist
        else begin
          let n = fresh t kind ~mode ~uid ~gid ~data ~parent:dn.id ~name in
          t.catalogue <- Catalogue.add (dn.id, name) n.id t.catalogue;
          touch t dn;
          Ok (fh_of t n.id, attr_of t n)
        end)

let unlink t dir_id name child_id =
  t.catalogue <- Catalogue.remove (dir_id, name) t.catalogue;
  Hashtbl.remove t.nodes child_id;
  release_id t child_id

let create t =
  {
    Server_intf.name = "catfs(btree)";
    root = (fun () -> fh_of t 2);
    lookup =
      (fun ~dir ~name ->
        with_dir t dir (fun dn ->
            match Catalogue.find_opt (dn.id, name) t.catalogue with
            | None -> Error Enoent
            | Some id -> (
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
            n.data <- Server_intf.string_resize n.data size;
            n.mtime <- clock t;
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
            Ok (Server_intf.substr n.data ~off ~count)
          | Dir -> Error Eisdir
          | Lnk -> Error Einval));
    write =
      (fun ~fh ~off ~data ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          match n.kind with
          | Reg -> (
            match Server_intf.string_splice n.data ~off ~data ~max_size:max_file_size with
            | Error e -> Error e
            | Ok data' ->
              n.data <- data';
              touch t n;
              Ok ())
          | Dir -> Error Eisdir
          | Lnk -> Error Einval));
    create = (fun ~dir ~name ~mode ~uid ~gid -> add t ~dir ~name Reg ~mode ~uid ~gid ~data:"");
    mkdir = (fun ~dir ~name ~mode ~uid ~gid -> add t ~dir ~name Dir ~mode ~uid ~gid ~data:"");
    symlink =
      (fun ~dir ~name ~target ~mode ~uid ~gid ->
        add t ~dir ~name Lnk ~mode ~uid ~gid ~data:target);
    readlink =
      (fun ~fh ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> if n.kind = Lnk then Ok n.data else Error Einval);
    remove =
      (fun ~dir ~name ->
        with_dir t dir (fun dn ->
            match Catalogue.find_opt (dn.id, name) t.catalogue with
            | None -> Error Enoent
            | Some id -> (
              match Hashtbl.find_opt t.nodes id with
              | None -> Error Eio
              | Some n ->
                if n.kind = Dir then Error Eisdir
                else begin
                  unlink t dn.id name id;
                  touch t dn;
                  Ok ()
                end)));
    rmdir =
      (fun ~dir ~name ->
        with_dir t dir (fun dn ->
            match Catalogue.find_opt (dn.id, name) t.catalogue with
            | None -> Error Enoent
            | Some id -> (
              match Hashtbl.find_opt t.nodes id with
              | None -> Error Eio
              | Some n ->
                if n.kind <> Dir then Error Enotdir
                else if children t id <> [] then Error Enotempty
                else begin
                  unlink t dn.id name id;
                  touch t dn;
                  Ok ()
                end)));
    rename =
      (fun ~sdir ~sname ~ddir ~dname ->
          with_dir t sdir (fun sdn ->
              with_dir t ddir (fun ddn ->
                  match Catalogue.find_opt (sdn.id, sname) t.catalogue with
                  | None -> Error Enoent
                  | Some id ->
                    if sdn.id = ddn.id && String.equal sname dname then Ok ()
                    else begin
                      (match Catalogue.find_opt (ddn.id, dname) t.catalogue with
                      | Some victim -> unlink t ddn.id dname victim
                      | None -> ());
                      t.catalogue <- Catalogue.remove (sdn.id, sname) t.catalogue;
                      t.catalogue <- Catalogue.add (ddn.id, dname) id t.catalogue;
                      (match Hashtbl.find_opt t.nodes id with
                      | Some n ->
                        n.parent <- ddn.id;
                        n.name <- dname
                      | None -> ());
                      touch t sdn;
                      touch t ddn;
                      Ok ()
                    end)));
    readdir =
      (fun ~dir ->
        with_dir t dir (fun dn ->
            Ok (List.map (fun (name, id) -> (name, fh_of t id)) (children t dn.id))));
    identity =
      (fun ~fh -> match node_of_fh t fh with Error e -> Error e | Ok n -> Ok (t.fsid, n.id));
    restart =
      (fun () -> t.session <- Base_util.Hex.encode (Bytes.to_string (Prng.bytes t.prng 3)));
  }
