(** "UnixFS": a classic inode-table file system.

    Design quirks (the non-determinism the wrapper must mask):
    - inode numbers are recycled LIFO from a free list;
    - directory entries are kept in insertion order;
    - file handles embed a per-boot salt, so they go stale on restart;
    - timestamps come from the host's own drifting clock. *)

open Base_nfs.Nfs_types
module Prng = Base_util.Prng

type filerec = { mutable data : string }

type dirrec = { mutable entries : (string * int) list (* insertion order *) }

type payload = P_file of filerec | P_dir of dirrec | P_link of { target : string }

type node = {
  ino : int;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable atime : int64;
  mutable mtime : int64;
  mutable ctime : int64;
  mutable payload : payload;
}

type t = {
  now : unit -> int64;
  fsid : int;
  mutable table : node option array;
  mutable free : int list;  (* LIFO recycled inode numbers *)
  mutable next_ino : int;
  mutable boot_salt : string;
  prng : Prng.t;
}

let fh_of t ino = Printf.sprintf "I:%d:%s" ino t.boot_salt

let node_of_fh t fh =
  let sep = Server_intf.handle_sep fh 'I' in
  let ino = Server_intf.handle_int fh ~pos:2 ~stop:sep in
  if ino >= 0 && ino < Array.length t.table && Server_intf.handle_tail_is fh ~pos:(sep + 1) t.boot_salt
  then match t.table.(ino) with Some n -> Ok n | None -> Error Estale
  else Error Estale

let alloc_ino t =
  match t.free with
  | ino :: rest ->
    t.free <- rest;
    ino
  | [] ->
    let ino = t.next_ino in
    t.next_ino <- ino + 1;
    if ino >= Array.length t.table then begin
      let bigger = Array.make (2 * Array.length t.table) None in
      Array.blit t.table 0 bigger 0 (Array.length t.table);
      t.table <- bigger
    end;
    ino

let attr_of t (n : node) =
  let ftype, size =
    match n.payload with
    | P_file { data } -> (Reg, String.length data)
    | P_dir { entries } -> (Dir, 512 * (1 + (List.length entries / 16)))
    | P_link { target } -> (Lnk, String.length target)
  in
  {
    Server_intf.a_ftype = ftype;
    a_mode = n.mode;
    a_uid = n.uid;
    a_gid = n.gid;
    a_size = size;
    a_fsid = t.fsid;
    a_fileid = n.ino;
    a_atime = n.atime;
    a_mtime = n.mtime;
    a_ctime = n.ctime;
  }

let new_node t ~mode ~uid ~gid payload =
  let ino = alloc_ino t in
  let now = t.now () in
  let n = { ino; mode; uid; gid; atime = now; mtime = now; ctime = now; payload } in
  t.table.(ino) <- Some n;
  n

let dir_entries n =
  match n.payload with P_dir d -> Ok d | P_file _ | P_link _ -> Error Enotdir

let touch t n =
  n.mtime <- t.now ();
  n.ctime <- n.mtime

let make ~seed ~now =
  let prng = Prng.create seed in
  let fsid = 0x1000 + Prng.int prng 0xefff in
  let t =
    {
      now;
      fsid;
      table = Array.make 64 None;
      free = [];
      next_ino = 0;
      boot_salt = Base_util.Hex.encode (Bytes.to_string (Prng.bytes prng 4));
      prng;
    }
  in
  let root = new_node t ~mode:0o755 ~uid:0 ~gid:0 (P_dir { entries = [] }) in
  assert (root.ino = 0);
  t

let lookup_in t dir name =
  match node_of_fh t dir with
  | Error e -> Error e
  | Ok dn -> (
    match dir_entries dn with
    | Error e -> Error e
    | Ok d -> (
      match List.assoc_opt name d.entries with
      | None -> Error Enoent
      | Some ino -> (
        match t.table.(ino) with Some n -> Ok (dn, d, n) | None -> Error Eio)))

let add_entry t ~dir ~name ~mode ~uid ~gid payload =
    match node_of_fh t dir with
    | Error e -> Error e
    | Ok dn -> (
      match dir_entries dn with
      | Error e -> Error e
      | Ok d ->
        if List.mem_assoc name d.entries then Error Eexist
        else begin
          let n = new_node t ~mode ~uid ~gid payload in
          d.entries <- d.entries @ [ (name, n.ino) ];
          touch t dn;
          Ok (fh_of t n.ino, attr_of t n)
        end)

(* Remove a whole subtree rooted at inode (used by overwriting renames of
   empty dirs and by remove). *)
let release t ino =
  t.table.(ino) <- None;
  t.free <- ino :: t.free

let create t =
  {
    Server_intf.name = "unixfs(inode)";
    root = (fun () -> fh_of t 0);
    lookup =
      (fun ~dir ~name ->
        match lookup_in t dir name with
        | Error e -> Error e
        | Ok (_, _, n) -> Ok (fh_of t n.ino, attr_of t n));
    getattr =
      (fun ~fh ->
        match node_of_fh t fh with Error e -> Error e | Ok n -> Ok (attr_of t n));
    setattr =
      (fun ~fh (c : Server_intf.csattr) ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          Option.iter (fun m -> n.mode <- m) c.c_mode;
          Option.iter (fun u -> n.uid <- u) c.c_uid;
          Option.iter (fun g -> n.gid <- g) c.c_gid;
          n.ctime <- t.now ();
          match (c.c_size, n.payload) with
          | None, _ -> Ok (attr_of t n)
          | Some size, P_file f ->
            f.data <- Server_intf.string_resize f.data size;
            touch t n;
            Ok (attr_of t n)
          | Some _, P_dir _ -> Error Eisdir
          | Some _, P_link _ -> Error Einval));
    read =
      (fun ~fh ~off ~count ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          match n.payload with
          | P_file { data } ->
            n.atime <- t.now ();
            Ok (Server_intf.substr data ~off ~count)
          | P_dir _ -> Error Eisdir
          | P_link _ -> Error Einval));
    write =
      (fun ~fh ~off ~data ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          match n.payload with
          | P_file f -> (
            match Server_intf.string_splice f.data ~off ~data ~max_size:max_file_size with
            | Error e -> Error e
            | Ok data' ->
              f.data <- data';
              touch t n;
              Ok ())
          | P_dir _ -> Error Eisdir
          | P_link _ -> Error Einval));
    create =
      (fun ~dir ~name ~mode ~uid ~gid ->
        add_entry t ~dir ~name ~mode ~uid ~gid (P_file { data = "" }));
    mkdir =
      (fun ~dir ~name ~mode ~uid ~gid ->
        add_entry t ~dir ~name ~mode ~uid ~gid (P_dir { entries = [] }));
    symlink =
      (fun ~dir ~name ~target ~mode ~uid ~gid ->
        add_entry t ~dir ~name ~mode ~uid ~gid (P_link { target }));
    readlink =
      (fun ~fh ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok n -> (
          match n.payload with
          | P_link { target } -> Ok target
          | P_file _ | P_dir _ -> Error Einval));
    remove =
      (fun ~dir ~name ->
        match lookup_in t dir name with
        | Error e -> Error e
        | Ok (dn, d, n) -> (
          match n.payload with
          | P_dir _ -> Error Eisdir
          | P_file _ | P_link _ ->
            d.entries <- List.remove_assoc name d.entries;
            release t n.ino;
            touch t dn;
            Ok ()));
    rmdir =
      (fun ~dir ~name ->
        match lookup_in t dir name with
        | Error e -> Error e
        | Ok (dn, d, n) -> (
          match n.payload with
          | P_dir { entries = [] } ->
            d.entries <- List.remove_assoc name d.entries;
            release t n.ino;
            touch t dn;
            Ok ()
          | P_dir _ -> Error Enotempty
          | P_file _ | P_link _ -> Error Enotdir));
    rename =
      (fun ~sdir ~sname ~ddir ~dname ->
          match lookup_in t sdir sname with
          | Error e -> Error e
          | Ok (sdn, sd, n) -> (
            match node_of_fh t ddir with
            | Error e -> Error e
            | Ok ddn -> (
              match dir_entries ddn with
              | Error e -> Error e
              | Ok dd ->
                if sdn.ino = ddn.ino && String.equal sname dname then Ok ()
                else begin
                  (* Overwrite semantics: caller (the wrapper) has validated
                     kind compatibility and emptiness. *)
                  (match List.assoc_opt dname dd.entries with
                  | Some existing ->
                    dd.entries <- List.remove_assoc dname dd.entries;
                    release t existing
                  | None -> ());
                  sd.entries <- List.remove_assoc sname sd.entries;
                  dd.entries <- dd.entries @ [ (dname, n.ino) ];
                  touch t sdn;
                  touch t ddn;
                  Ok ()
                end)));
    readdir =
      (fun ~dir ->
        match node_of_fh t dir with
        | Error e -> Error e
        | Ok dn -> (
          match dir_entries dn with
          | Error e -> Error e
          | Ok d -> Ok (List.map (fun (name, ino) -> (name, fh_of t ino)) d.entries)));
    identity =
      (fun ~fh ->
        match node_of_fh t fh with Error e -> Error e | Ok n -> Ok (t.fsid, n.ino));
    restart =
      (fun () ->
        (* New boot: volatile handles change, persistent state survives. *)
        t.boot_salt <- Base_util.Hex.encode (Bytes.to_string (Prng.bytes t.prng 4)));
  }
