(** "HashFS": a path-keyed file system.

    Every object lives in one hash table keyed by its full path; directories
    are implicit (readdir scans the table for children).  Quirks:
    - readdir order is hash-table order, which depends on the instance seed;
    - file handles are random tokens resolved through a volatile table that
      is lost on restart;
    - rename rewrites the keys of a whole subtree. *)

open Base_nfs.Nfs_types
module Prng = Base_util.Prng

type node = {
  id : int;  (* persistent fileid *)
  mutable kind : ftype;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable data : string;  (* file content or symlink target *)
  mutable atime : int64;
  mutable mtime : int64;
  mutable ctime : int64;
}

type t = {
  now : unit -> int64;
  fsid : int;
  nodes : (string, node) Hashtbl.t;  (* path -> node; root = "" *)
  mutable handles : (string, string) Hashtbl.t;  (* token -> path; volatile *)
  mutable paths2h : (string, string) Hashtbl.t;  (* path -> token; volatile *)
  mutable next_id : int;
  prng : Prng.t;
}

let parent_of path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path 0 i
  | None -> "" (* direct child of root, or root itself *)

let leaf_of path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let join dir name = if String.equal dir "" then name else dir ^ "/" ^ name

let handle_for t path =
  match Hashtbl.find_opt t.paths2h path with
  | Some h -> h
  | None ->
    let h = "H:" ^ Base_util.Hex.encode (Bytes.to_string (Prng.bytes t.prng 6)) in
    Hashtbl.replace t.handles h path;
    Hashtbl.replace t.paths2h path h;
    h

let path_of_fh t fh =
  match Hashtbl.find_opt t.handles fh with
  | Some path when Hashtbl.mem t.nodes path -> Ok path
  | Some _ | None -> Error Estale

let node_at t path =
  match Hashtbl.find_opt t.nodes path with Some n -> Ok n | None -> Error Estale

let fresh_node t kind ~mode ~uid ~gid ~data =
  let id = t.next_id in
  t.next_id <- id + 1;
  let now = t.now () in
  { id; kind; mode; uid; gid; data; atime = now; mtime = now; ctime = now }

let attr_of t path (n : node) =
  let size =
    match n.kind with
    | Reg | Lnk -> String.length n.data
    | Dir ->
      (* Derived from a table scan: hash file systems have no dir blocks. *)
      Hashtbl.fold
        (fun p _ acc ->
          if (not (String.equal p "")) && String.equal (parent_of p) path then acc + 1
          else acc)
        t.nodes 0
      * 64
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

let children t dir_path =
  Hashtbl.fold
    (fun p n acc ->
      if (not (String.equal p "")) && String.equal (parent_of p) dir_path then
        (leaf_of p, p, n) :: acc
      else acc)
    t.nodes []

let make ~seed ~now =
  let prng = Prng.create seed in
  let t =
    {
      now;
      fsid = 0x2000 + Prng.int prng 0xdfff;
      nodes = Hashtbl.create 256;
      handles = Hashtbl.create 256;
      paths2h = Hashtbl.create 256;
      next_id = 1;
      prng;
    }
  in
  Hashtbl.replace t.nodes "" (fresh_node t Dir ~mode:0o755 ~uid:0 ~gid:0 ~data:"");
  t

let with_dir t fh k =
  match path_of_fh t fh with
  | Error e -> Error e
  | Ok path -> (
    match node_at t path with
    | Error e -> Error e
    | Ok n -> if n.kind <> Dir then Error Enotdir else k path n)

let add t ~dir ~name kind ~mode ~uid ~gid ~data =
    with_dir t dir (fun dpath dnode ->
        let cpath = join dpath name in
        if Hashtbl.mem t.nodes cpath then Error Eexist
        else begin
          let n = fresh_node t kind ~mode ~uid ~gid ~data in
          Hashtbl.replace t.nodes cpath n;
          dnode.mtime <- t.now ();
          dnode.ctime <- dnode.mtime;
          Ok (handle_for t cpath, attr_of t cpath n)
        end)

let delete_path t path =
  Hashtbl.remove t.nodes path;
  (match Hashtbl.find_opt t.paths2h path with
  | Some h ->
    Hashtbl.remove t.handles h;
    Hashtbl.remove t.paths2h path
  | None -> ())

(* Re-key a whole subtree from old_path to new_path (rename). *)
let move_subtree t old_path new_path =
  let prefix = old_path ^ "/" in
  let moved =
    Hashtbl.fold
      (fun p n acc ->
        if String.equal p old_path then (p, new_path, n) :: acc
        else if String.length p > String.length prefix
                && String.equal (String.sub p 0 (String.length prefix)) prefix then
          (p, new_path ^ "/" ^ String.sub p (String.length prefix)
                            (String.length p - String.length prefix),
           n)
          :: acc
        else acc)
      t.nodes []
  in
  List.iter
    (fun (old_p, new_p, n) ->
      delete_path t old_p;
      Hashtbl.replace t.nodes new_p n;
      ignore (handle_for t new_p))
    moved

let create t =
  {
    Server_intf.name = "hashfs(path)";
    root = (fun () -> handle_for t "");
    lookup =
      (fun ~dir ~name ->
        with_dir t dir (fun dpath _ ->
            let cpath = join dpath name in
            match node_at t cpath with
            | Error _ -> Error Enoent
            | Ok n -> Ok (handle_for t cpath, attr_of t cpath n)));
    getattr =
      (fun ~fh ->
        match path_of_fh t fh with
        | Error e -> Error e
        | Ok path -> ( match node_at t path with Error e -> Error e | Ok n -> Ok (attr_of t path n)));
    setattr =
      (fun ~fh (c : Server_intf.csattr) ->
        match path_of_fh t fh with
        | Error e -> Error e
        | Ok path -> (
          match node_at t path with
          | Error e -> Error e
          | Ok n -> (
            Option.iter (fun m -> n.mode <- m) c.c_mode;
            Option.iter (fun u -> n.uid <- u) c.c_uid;
            Option.iter (fun g -> n.gid <- g) c.c_gid;
            n.ctime <- t.now ();
            match (c.c_size, n.kind) with
            | None, _ -> Ok (attr_of t path n)
            | Some size, Reg ->
              n.data <- Server_intf.string_resize n.data size;
              n.mtime <- t.now ();
              Ok (attr_of t path n)
            | Some _, Dir -> Error Eisdir
            | Some _, Lnk -> Error Einval)));
    read =
      (fun ~fh ~off ~count ->
        match path_of_fh t fh with
        | Error e -> Error e
        | Ok path -> (
          match node_at t path with
          | Error e -> Error e
          | Ok n -> (
            match n.kind with
            | Reg ->
              n.atime <- t.now ();
              Ok (Server_intf.substr n.data ~off ~count)
            | Dir -> Error Eisdir
            | Lnk -> Error Einval)));
    write =
      (fun ~fh ~off ~data ->
        match path_of_fh t fh with
        | Error e -> Error e
        | Ok path -> (
            match node_at t path with
            | Error e -> Error e
            | Ok n -> (
              match n.kind with
              | Reg -> (
                match Server_intf.string_splice n.data ~off ~data ~max_size:max_file_size with
                | Error e -> Error e
                | Ok data' ->
                  n.data <- data';
                  n.mtime <- t.now ();
                  n.ctime <- n.mtime;
                  Ok ())
              | Dir -> Error Eisdir
              | Lnk -> Error Einval)));
    create =
      (fun ~dir ~name ~mode ~uid ~gid -> add t ~dir ~name Reg ~mode ~uid ~gid ~data:"");
    mkdir = (fun ~dir ~name ~mode ~uid ~gid -> add t ~dir ~name Dir ~mode ~uid ~gid ~data:"");
    symlink =
      (fun ~dir ~name ~target ~mode ~uid ~gid ->
        add t ~dir ~name Lnk ~mode ~uid ~gid ~data:target);
    readlink =
      (fun ~fh ->
        match path_of_fh t fh with
        | Error e -> Error e
        | Ok path -> (
          match node_at t path with
          | Error e -> Error e
          | Ok n -> if n.kind = Lnk then Ok n.data else Error Einval));
    remove =
      (fun ~dir ~name ->
        with_dir t dir (fun dpath dnode ->
            let cpath = join dpath name in
            match node_at t cpath with
            | Error _ -> Error Enoent
            | Ok n ->
              if n.kind = Dir then Error Eisdir
              else begin
                delete_path t cpath;
                dnode.mtime <- t.now ();
                dnode.ctime <- dnode.mtime;
                Ok ()
              end));
    rmdir =
      (fun ~dir ~name ->
        with_dir t dir (fun dpath dnode ->
            let cpath = join dpath name in
            match node_at t cpath with
            | Error _ -> Error Enoent
            | Ok n ->
              if n.kind <> Dir then Error Enotdir
              else if children t cpath <> [] then Error Enotempty
              else begin
                delete_path t cpath;
                dnode.mtime <- t.now ();
                dnode.ctime <- dnode.mtime;
                Ok ()
              end));
    rename =
      (fun ~sdir ~sname ~ddir ~dname ->
          with_dir t sdir (fun spath snode ->
              with_dir t ddir (fun dpath dnode ->
                  let src = join spath sname in
                  let dst = join dpath dname in
                  match node_at t src with
                  | Error _ -> Error Enoent
                  | Ok _ ->
                    if String.equal src dst then Ok ()
                    else begin
                      (match node_at t dst with
                      | Ok victim ->
                        if victim.kind = Dir then
                          List.iter (fun (_, p, _) -> delete_path t p) (children t dst);
                        delete_path t dst
                      | Error _ -> ());
                      move_subtree t src dst;
                      snode.mtime <- t.now ();
                      snode.ctime <- snode.mtime;
                      dnode.mtime <- t.now ();
                      dnode.ctime <- dnode.mtime;
                      Ok ()
                    end)));
    readdir =
      (fun ~dir ->
        with_dir t dir (fun dpath _ ->
            (* Hash order: whatever the table iteration yields. *)
            Ok (List.map (fun (name, p, _) -> (name, handle_for t p)) (children t dpath))));
    identity =
      (fun ~fh ->
        match path_of_fh t fh with
        | Error e -> Error e
        | Ok path -> ( match node_at t path with Error e -> Error e | Ok n -> Ok (t.fsid, n.id)));
    restart =
      (fun () ->
        (* The handle tables are in volatile memory. *)
        t.handles <- Hashtbl.create 256;
        t.paths2h <- Hashtbl.create 256);
  }
