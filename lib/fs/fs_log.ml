(** "LogFS": a log-structured file system.

    All updates append immutable node versions to a log; an index maps node
    ids to their latest log offset, and the log is compacted when garbage
    accumulates.  Quirks:
    - file handles encode (boot epoch, node id) and die with the epoch;
    - directory entries are kept in reverse insertion order;
    - timestamps come from the host's own clock, with a fixed boot offset
      (this server's clock was never synchronised). *)

open Base_nfs.Nfs_types
module Prng = Base_util.Prng

type version = {
  id : int;
  kind : ftype;
  mode : int;
  uid : int;
  gid : int;
  data : string;  (* file content or symlink target *)
  entries : (string * int) list;  (* reverse insertion order, dirs only *)
  atime : int64;
  mtime : int64;
  ctime : int64;
}

type t = {
  now : unit -> int64;
  clock_offset : int64;
  fsid : int;
  mutable log : version option array;  (* None = hole left by compaction *)
  mutable log_len : int;
  index : (int, int) Hashtbl.t;  (* id -> offset of latest version *)
  mutable next_id : int;
  mutable epoch : int;
  mutable live : int;
}

let fh_of t id = Printf.sprintf "L:%d:%d" t.epoch id

let id_of_fh t fh =
  let sep = Server_intf.handle_sep fh 'L' in
  let id = Server_intf.handle_int fh ~pos:(sep + 1) ~stop:(String.length fh) in
  if sep >= 0 && Server_intf.handle_int fh ~pos:2 ~stop:sep = t.epoch && id >= 0 then Ok id
  else Error Estale

let clock t = Int64.add (t.now ()) t.clock_offset

let append t v =
  if t.log_len >= Array.length t.log then begin
    let bigger = Array.make (2 * Array.length t.log) None in
    Array.blit t.log 0 bigger 0 t.log_len;
    t.log <- bigger
  end;
  t.log.(t.log_len) <- Some v;
  (if not (Hashtbl.mem t.index v.id) then t.live <- t.live + 1);
  Hashtbl.replace t.index v.id t.log_len;
  t.log_len <- t.log_len + 1

let compact t =
  let survivors =
    Hashtbl.fold (fun _ off acc -> (off, Option.get t.log.(off)) :: acc) t.index []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let fresh = Array.make (max 64 (2 * List.length survivors)) None in
  Hashtbl.reset t.index;
  t.log <- fresh;
  t.log_len <- 0;
  t.live <- 0;
  List.iter (fun (_, v) -> append t v) survivors

let maybe_compact t = if t.log_len > 64 && t.log_len > 4 * t.live then compact t

let latest t id =
  match Hashtbl.find_opt t.index id with
  | Some off -> ( match t.log.(off) with Some v -> Ok v | None -> Error Eio)
  | None -> Error Estale

let update t (v : version) =
  append t v;
  maybe_compact t

let drop t id =
  Hashtbl.remove t.index id;
  t.live <- t.live - 1

let node_of_fh t fh =
  match id_of_fh t fh with Error e -> Error e | Ok id -> latest t id

let attr_of t (v : version) =
  let size =
    match v.kind with
    | Reg | Lnk -> String.length v.data
    | Dir -> 128 + (40 * List.length v.entries)
  in
  {
    Server_intf.a_ftype = v.kind;
    a_mode = v.mode;
    a_uid = v.uid;
    a_gid = v.gid;
    a_size = size;
    a_fsid = t.fsid;
    a_fileid = v.id;
    a_atime = v.atime;
    a_mtime = v.mtime;
    a_ctime = v.ctime;
  }

let make ~seed ~now =
  let prng = Prng.create seed in
  let t =
    {
      now;
      clock_offset = Int64.of_int (Prng.int prng 10_000_000);
      fsid = 0x4000 + Prng.int prng 0xbfff;
      log = Array.make 64 None;
      log_len = 0;
      index = Hashtbl.create 256;
      next_id = 2;
      epoch = Prng.int prng 1000;
      live = 0;
    }
  in
  let now0 = clock t in
  append t
    {
      id = 1;
      kind = Dir;
      mode = 0o755;
      uid = 0;
      gid = 0;
      data = "";
      entries = [];
      atime = now0;
      mtime = now0;
      ctime = now0;
    };
  t

let fresh t kind ~mode ~uid ~gid ~data =
  let id = t.next_id in
  t.next_id <- id + 1;
  let now = clock t in
  { id; kind; mode; uid; gid; data; entries = []; atime = now; mtime = now; ctime = now }

let with_dir t fh k =
  match node_of_fh t fh with
  | Error e -> Error e
  | Ok v -> if v.kind <> Dir then Error Enotdir else k v

let touch_dir t (v : version) entries =
  let now = clock t in
  update t { v with entries; mtime = now; ctime = now }

let add t ~dir ~name kind ~mode ~uid ~gid ~data =
    with_dir t dir (fun dv ->
        if List.mem_assoc name dv.entries then Error Eexist
        else begin
          let v = fresh t kind ~mode ~uid ~gid ~data in
          append t v;
          touch_dir t dv ((name, v.id) :: dv.entries);
          Ok (fh_of t v.id, attr_of t v)
        end)

let create t =
  {
    Server_intf.name = "logfs";
    root = (fun () -> fh_of t 1);
    lookup =
      (fun ~dir ~name ->
        with_dir t dir (fun dv ->
            match List.assoc_opt name dv.entries with
            | None -> Error Enoent
            | Some id -> (
              match latest t id with
              | Error e -> Error e
              | Ok v -> Ok (fh_of t id, attr_of t v))));
    getattr =
      (fun ~fh -> match node_of_fh t fh with Error e -> Error e | Ok v -> Ok (attr_of t v));
    setattr =
      (fun ~fh (c : Server_intf.csattr) ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok v -> (
          let v =
            {
              v with
              mode = Option.value c.c_mode ~default:v.mode;
              uid = Option.value c.c_uid ~default:v.uid;
              gid = Option.value c.c_gid ~default:v.gid;
              ctime = clock t;
            }
          in
          match (c.c_size, v.kind) with
          | None, _ ->
            update t v;
            Ok (attr_of t v)
          | Some size, Reg ->
            let v = { v with data = Server_intf.string_resize v.data size; mtime = clock t } in
            update t v;
            Ok (attr_of t v)
          | Some _, Dir -> Error Eisdir
          | Some _, Lnk -> Error Einval));
    read =
      (fun ~fh ~off ~count ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok v -> (
          match v.kind with
          | Reg -> Ok (Server_intf.substr v.data ~off ~count)
          | Dir -> Error Eisdir
          | Lnk -> Error Einval));
    write =
      (fun ~fh ~off ~data ->
        match node_of_fh t fh with
        | Error e -> Error e
        | Ok v -> (
          match v.kind with
          | Reg -> (
            match Server_intf.string_splice v.data ~off ~data ~max_size:max_file_size with
            | Error e -> Error e
            | Ok data' ->
              let now = clock t in
              update t { v with data = data'; mtime = now; ctime = now };
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
        | Ok v -> if v.kind = Lnk then Ok v.data else Error Einval);
    remove =
      (fun ~dir ~name ->
        with_dir t dir (fun dv ->
            match List.assoc_opt name dv.entries with
            | None -> Error Enoent
            | Some id -> (
              match latest t id with
              | Error e -> Error e
              | Ok v ->
                if v.kind = Dir then Error Eisdir
                else begin
                  drop t id;
                  touch_dir t dv (List.remove_assoc name dv.entries);
                  Ok ()
                end)));
    rmdir =
      (fun ~dir ~name ->
        with_dir t dir (fun dv ->
            match List.assoc_opt name dv.entries with
            | None -> Error Enoent
            | Some id -> (
              match latest t id with
              | Error e -> Error e
              | Ok v ->
                if v.kind <> Dir then Error Enotdir
                else if v.entries <> [] then Error Enotempty
                else begin
                  drop t id;
                  touch_dir t dv (List.remove_assoc name dv.entries);
                  Ok ()
                end)));
    rename =
      (fun ~sdir ~sname ~ddir ~dname ->
          with_dir t sdir (fun sv ->
              with_dir t ddir (fun dv ->
                  match List.assoc_opt sname sv.entries with
                  | None -> Error Enoent
                  | Some id ->
                    if sv.id = dv.id && String.equal sname dname then Ok ()
                    else if sv.id = dv.id then begin
                      (match List.assoc_opt dname sv.entries with
                      | Some victim -> drop t victim
                      | None -> ());
                      let entries =
                        List.remove_assoc dname (List.remove_assoc sname sv.entries)
                      in
                      touch_dir t sv ((dname, id) :: entries);
                      Ok ()
                    end
                    else begin
                      (match List.assoc_opt dname dv.entries with
                      | Some victim -> drop t victim
                      | None -> ());
                      touch_dir t sv (List.remove_assoc sname sv.entries);
                      (* Re-read the destination: touch_dir appended a new
                         version of the source directory to the log. *)
                      (match latest t dv.id with
                      | Ok dv' ->
                        touch_dir t dv' ((dname, id) :: List.remove_assoc dname dv'.entries)
                      | Error _ -> ());
                      Ok ()
                    end)));
    readdir =
      (fun ~dir ->
        with_dir t dir (fun dv ->
            Ok (List.map (fun (name, id) -> (name, fh_of t id)) dv.entries)));
    identity =
      (fun ~fh ->
        match node_of_fh t fh with Error e -> Error e | Ok v -> Ok (t.fsid, v.id));
    restart = (fun () -> t.epoch <- t.epoch + 1);
  }
