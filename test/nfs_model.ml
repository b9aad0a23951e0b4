(* The executable model of the file service's common abstract
   specification (Section 3.1): the oracle every conformance wrapper is
   differentially tested against (test_conformance.ml), and itself tested
   in test_nfs_model.ml.  It extends [Base_nfs.Abstract_spec], which keeps
   the entry types and their canonical encoding, with the operational
   semantics: a fixed-size array of entries, entry 0 the root directory,
   and oids assigned deterministically (the lowest free index, with the
   entry's generation number incremented). *)

include Base_nfs.Abstract_spec
open Base_nfs.Nfs_types
module Nfs_proto = Base_nfs.Nfs_proto

type t = { slots : entry array }

let n_objects t = Array.length t.slots

let create ~n_objects =
  if n_objects < 2 then invalid_arg "Nfs_model.create: need at least 2 slots";
  let slots = Array.make n_objects { gen = 0; obj = Null } in
  slots.(0) <-
    {
      gen = 0;
      obj = Directory { meta = { mode = 0o755; uid = 0; gid = 0; mtime = 0L; ctime = 0L }; entries = [] };
    };
  { slots }

let slot t i = t.slots.(i)

(* --- derived attributes ----------------------------------------------------- *)

let attr_of ~index (en : entry) =
  match en.obj with
  | Null -> invalid_arg "Nfs_model.attr_of: null object"
  | File { meta; data } ->
    {
      ftype = Reg;
      mode = meta.mode;
      nlink = 1;
      uid = meta.uid;
      gid = meta.gid;
      size = String.length data;
      fsid = 1;
      fileid = index;
      atime = meta.mtime;
      mtime = meta.mtime;
      ctime = meta.ctime;
    }
  | Directory { meta; entries } ->
    {
      ftype = Dir;
      mode = meta.mode;
      nlink = 2;
      uid = meta.uid;
      gid = meta.gid;
      size = dir_size entries;
      fsid = 1;
      fileid = index;
      atime = meta.mtime;
      mtime = meta.mtime;
      ctime = meta.ctime;
    }
  | Symlink { meta; target } ->
    {
      ftype = Lnk;
      mode = meta.mode;
      nlink = 1;
      uid = meta.uid;
      gid = meta.gid;
      size = String.length target;
      fsid = 1;
      fileid = index;
      atime = meta.mtime;
      mtime = meta.mtime;
      ctime = meta.ctime;
    }

(* --- the operational semantics ---------------------------------------------- *)

type resolved = { r_index : int; r_entry : entry }

let resolve t (o : oid) =
  if o.index < 0 || o.index >= n_objects t then Error Estale
  else begin
    let en = t.slots.(o.index) in
    if en.gen <> o.gen || en.obj = Null then Error Estale
    else Ok { r_index = o.index; r_entry = en }
  end

let find_free t =
  let rec loop i =
    if i >= n_objects t then None
    else if t.slots.(i).obj = Null then Some i
    else loop (i + 1)
  in
  loop 1

let sorted_insert entries name o =
  let rec ins = function
    | [] -> [ (name, o) ]
    | (n, _) :: _ as rest when String.compare name n < 0 -> (name, o) :: rest
    | e :: rest -> e :: ins rest
  in
  ins (List.remove_assoc name entries)

(* Is [idx] inside the subtree rooted at [root_idx]?  Used for the
   rename-into-own-descendant check. *)
let in_subtree t ~root_idx idx =
  let rec walk at =
    at = idx
    ||
    match t.slots.(at).obj with
    | Directory { entries; _ } -> List.exists (fun (_, o) -> walk o.index) entries
    | File _ | Symlink _ | Null -> false
  in
  walk root_idx

let oid_at t index = { index; gen = t.slots.(index).gen }

(* All slot mutation funnels through [set] so copy-on-write checkpointing
   sees every modification before it happens. *)
let execute ?(modify = fun (_ : int) -> ()) t ~ts (call : Nfs_proto.call) : Nfs_proto.reply =
  let set i entry =
    modify i;
    t.slots.(i) <- entry
  in
  let touch_dir i (meta : meta) entries = set i { gen = t.slots.(i).gen; obj = Directory { meta = { meta with mtime = ts; ctime = ts }; entries } } in
  let dir_of r =
    match r.r_entry.obj with
    | Directory { meta; entries } -> Ok (meta, entries)
    | File _ | Symlink _ -> Error Enotdir
    | Null -> Error Estale
  in
  let with_dir o k =
    match resolve t o with
    | Error e -> Nfs_proto.R_err e
    | Ok r -> (
      match dir_of r with Error e -> Nfs_proto.R_err e | Ok (meta, entries) -> k r meta entries)
  in
  let with_named_dir o name k =
    with_dir o (fun r meta entries ->
        if not (name_ok name) then Nfs_proto.R_err Einval else k r meta entries)
  in
  let allocate obj =
    match find_free t with
    | None -> Error Enospc
    | Some i ->
      let gen = t.slots.(i).gen + 1 in
      set i { gen; obj };
      Ok { index = i; gen }
  in
  let free i =
    (* The generation number stays; it is bumped at the next allocation. *)
    set i { gen = t.slots.(i).gen; obj = Null }
  in
  match call with
  | Getattr o -> (
    match resolve t o with
    | Error e -> R_err e
    | Ok r -> R_attr (attr_of ~index:r.r_index r.r_entry))
  | Setattr (o, s) -> (
    match resolve t o with
    | Error e -> R_err e
    | Ok r -> (
      let upd (m : meta) =
        {
          mode = Option.value s.s_mode ~default:m.mode;
          uid = Option.value s.s_uid ~default:m.uid;
          gid = Option.value s.s_gid ~default:m.gid;
          ctime = ts;
          mtime = Option.value s.s_mtime ~default:m.mtime;
        }
      in
      match (r.r_entry.obj, s.s_size) with
      | Directory _, Some _ -> R_err Eisdir
      | Symlink _, Some _ -> R_err Einval
      | File { meta; data }, size_opt ->
        let data =
          match size_opt with
          | None -> data
          | Some size ->
            if size > max_file_size then data (* handled below *)
            else if size <= String.length data then String.sub data 0 size
            else data ^ String.make (size - String.length data) '\000'
        in
        if (match size_opt with Some size -> size > max_file_size | None -> false) then
          R_err Efbig
        else begin
          let meta = upd meta in
          let meta =
            if s.s_size <> None && s.s_mtime = None then { meta with mtime = ts } else meta
          in
          set r.r_index { gen = r.r_entry.gen; obj = File { meta; data } };
          R_attr (attr_of ~index:r.r_index t.slots.(r.r_index))
        end
      | Directory { meta; entries }, None ->
        set r.r_index { gen = r.r_entry.gen; obj = Directory { meta = upd meta; entries } };
        R_attr (attr_of ~index:r.r_index t.slots.(r.r_index))
      | Symlink { meta; target }, None ->
        set r.r_index { gen = r.r_entry.gen; obj = Symlink { meta = upd meta; target } };
        R_attr (attr_of ~index:r.r_index t.slots.(r.r_index))
      | Null, _ -> R_err Estale))
  | Lookup (o, name) ->
    with_dir o (fun _r _meta entries ->
        if not (name_ok name) then R_err Einval
        else
          match List.assoc_opt name entries with
          | None -> R_err Enoent
          | Some child -> R_lookup (child, attr_of ~index:child.index t.slots.(child.index)))
  | Readlink o -> (
    match resolve t o with
    | Error e -> R_err e
    | Ok r -> (
      match r.r_entry.obj with
      | Symlink { target; _ } -> R_readlink target
      | File _ | Directory _ | Null -> R_err Einval))
  | Read (o, off, count) -> (
    match resolve t o with
    | Error e -> R_err e
    | Ok r -> (
      match r.r_entry.obj with
      | File { data; _ } ->
        let len = String.length data in
        let off = min off len in
        let count = min count (len - off) in
        R_read (String.sub data off count, attr_of ~index:r.r_index r.r_entry)
      | Directory _ -> R_err Eisdir
      | Symlink _ -> R_err Einval
      | Null -> R_err Estale))
  | Write (o, off, wdata) -> (
    match resolve t o with
    | Error e -> R_err e
    | Ok r -> (
      match r.r_entry.obj with
      | File { meta; data } ->
        if off + String.length wdata > max_file_size then R_err Efbig
        else begin
          let len = String.length data in
          let base =
            if off > len then data ^ String.make (off - len) '\000' else data
          in
          let head = String.sub base 0 off in
          let tail_start = off + String.length wdata in
          let tail =
            if tail_start < String.length base then
              String.sub base tail_start (String.length base - tail_start)
            else ""
          in
          let meta = { meta with mtime = ts; ctime = ts } in
          set r.r_index { gen = r.r_entry.gen; obj = File { meta; data = head ^ wdata ^ tail } };
          R_attr (attr_of ~index:r.r_index t.slots.(r.r_index))
        end
      | Directory _ -> R_err Eisdir
      | Symlink _ -> R_err Einval
      | Null -> R_err Estale))
  | Create (o, name, s) ->
    with_named_dir o name (fun r meta entries ->
        if List.mem_assoc name entries then R_err Eexist
        else begin
          let m =
            {
              mode = Option.value s.s_mode ~default:0o644;
              uid = Option.value s.s_uid ~default:0;
              gid = Option.value s.s_gid ~default:0;
              mtime = ts;
              ctime = ts;
            }
          in
          match allocate (File { meta = m; data = "" }) with
          | Error e -> R_err e
          | Ok child ->
            touch_dir r.r_index meta (sorted_insert entries name child);
            R_create (child, attr_of ~index:child.index t.slots.(child.index))
        end)
  | Remove (o, name) ->
    with_named_dir o name (fun r meta entries ->
        match List.assoc_opt name entries with
        | None -> R_err Enoent
        | Some child -> (
          match t.slots.(child.index).obj with
          | Directory _ -> R_err Eisdir
          | File _ | Symlink _ ->
            free child.index;
            touch_dir r.r_index meta (List.remove_assoc name entries);
            R_ok
          | Null -> R_err Estale))
  | Rename (so, sn, dd, dn) ->
    with_named_dir so sn (fun sr smeta sentries ->
        with_named_dir dd dn (fun dr _dmeta _dentries ->
            match List.assoc_opt sn sentries with
            | None -> R_err Enoent
            | Some child ->
              if so.index = dd.index && String.equal sn dn then R_ok
              else begin
                let child_is_dir =
                  match t.slots.(child.index).obj with Directory _ -> true | _ -> false
                in
                if child_is_dir && in_subtree t ~root_idx:child.index dr.r_index then
                  R_err Einval
                else begin
                  (* Re-read the destination directory: it may be the same
                     object as the source. *)
                  let dest_entries =
                    match t.slots.(dr.r_index).obj with
                    | Directory { entries; _ } -> entries
                    | _ -> assert false
                  in
                  let replace =
                    match List.assoc_opt dn dest_entries with
                    | None -> Ok None
                    | Some existing -> (
                      match (child_is_dir, t.slots.(existing.index).obj) with
                      | true, Directory { entries = []; _ } -> Ok (Some existing)
                      | true, Directory _ -> Error Enotempty
                      | true, (File _ | Symlink _) -> Error Enotdir
                      | false, Directory _ -> Error Eisdir
                      | false, (File _ | Symlink _) -> Ok (Some existing)
                      | _, Null -> Error Estale)
                  in
                  match replace with
                  | Error e -> R_err e
                  | Ok replaced ->
                    (match replaced with
                    | Some existing -> free existing.index
                    | None -> ());
                    (* Remove from source, insert into destination; the two
                       may be the same directory. *)
                    if sr.r_index = dr.r_index then begin
                      let entries = List.remove_assoc sn sentries in
                      touch_dir sr.r_index smeta (sorted_insert entries dn child)
                    end
                    else begin
                      touch_dir sr.r_index smeta (List.remove_assoc sn sentries);
                      let dmeta, dentries =
                        match t.slots.(dr.r_index).obj with
                        | Directory { meta; entries } -> (meta, entries)
                        | _ -> assert false
                      in
                      touch_dir dr.r_index dmeta (sorted_insert dentries dn child)
                    end;
                    R_ok
                end
              end))
  | Symlink (o, name, target, s) ->
    with_named_dir o name (fun r meta entries ->
        if String.length target > 1024 then R_err Einval
        else if List.mem_assoc name entries then R_err Eexist
        else begin
          let m =
            {
              mode = Option.value s.s_mode ~default:0o777;
              uid = Option.value s.s_uid ~default:0;
              gid = Option.value s.s_gid ~default:0;
              mtime = ts;
              ctime = ts;
            }
          in
          match allocate (Symlink { meta = m; target }) with
          | Error e -> R_err e
          | Ok child ->
            touch_dir r.r_index meta (sorted_insert entries name child);
            R_create (child, attr_of ~index:child.index t.slots.(child.index))
        end)
  | Mkdir (o, name, s) ->
    with_named_dir o name (fun r meta entries ->
        if List.mem_assoc name entries then R_err Eexist
        else begin
          let m =
            {
              mode = Option.value s.s_mode ~default:0o755;
              uid = Option.value s.s_uid ~default:0;
              gid = Option.value s.s_gid ~default:0;
              mtime = ts;
              ctime = ts;
            }
          in
          match allocate (Directory { meta = m; entries = [] }) with
          | Error e -> R_err e
          | Ok child ->
            touch_dir r.r_index meta (sorted_insert entries name child);
            R_create (child, attr_of ~index:child.index t.slots.(child.index))
        end)
  | Rmdir (o, name) ->
    with_named_dir o name (fun r meta entries ->
        match List.assoc_opt name entries with
        | None -> R_err Enoent
        | Some child -> (
          match t.slots.(child.index).obj with
          | Directory { entries = []; _ } ->
            free child.index;
            touch_dir r.r_index meta (List.remove_assoc name entries);
            R_ok
          | Directory _ -> R_err Enotempty
          | File _ | Symlink _ -> R_err Enotdir
          | Null -> R_err Estale))
  | Readdir o -> with_dir o (fun _r _meta entries -> R_readdir entries)
  | Statfs ->
    let free_slots =
      Array.fold_left (fun acc en -> if en.obj = Null then acc + 1 else acc) 0 t.slots
    in
    R_statfs { total_slots = n_objects t; free_slots }
