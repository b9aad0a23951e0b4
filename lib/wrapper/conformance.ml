open Base_nfs.Nfs_types
module Proto = Base_nfs.Nfs_proto
module Spec = Base_nfs.Abstract_spec
module S = Base_fs.Server_intf
module Service = Base_core.Service

(* Conformance rep (Section 3.2): one slot per abstract object.  [fh] is the
   concrete handle the underlying server assigned to the object (volatile);
   [mtime]/[ctime] are the object's *abstract* timestamps; [parent]/[name]
   locate the object concretely ([parent = staging_parent] while it sits in
   the hidden staging directory). *)
type rentry = {
  mutable gen : int;
  mutable fh : string option;
  mutable ftype : ftype;
  mutable mtime : int64;
  mutable ctime : int64;
  mutable parent : int;
  mutable name : string;
}

let staging_parent = -1

type t = {
  server : S.t;
  entries : rentry array;
  fh2oid : (string, int) Hashtbl.t;  (* volatile *)
  id2oid : (int * int, int) Hashtbl.t;  (* persistent <fsid,fileid> -> index *)
  mutable staging_fh : string;
  mutable staging_seq : int;
}

let staging_name = "#staging"

exception Wrapper_bug of string

let bug fmt = Printf.ksprintf (fun s -> raise (Wrapper_bug s)) fmt

(* --- rep maintenance -------------------------------------------------------- *)

let entry_fh t i =
  match t.entries.(i).fh with
  | Some fh -> fh
  | None -> bug "oid %d has no concrete handle" i

let location_fh t (e : rentry) =
  if e.parent = staging_parent then t.staging_fh else entry_fh t e.parent

let set_fh t i fh =
  let e = t.entries.(i) in
  (match e.fh with Some old -> Hashtbl.remove t.fh2oid old | None -> ());
  e.fh <- Some fh;
  Hashtbl.replace t.fh2oid fh i

let register t i ~gen ~fh ~ftype ~parent ~name ~mtime ~ctime =
  let e = t.entries.(i) in
  e.gen <- gen;
  e.ftype <- ftype;
  e.mtime <- mtime;
  e.ctime <- ctime;
  e.parent <- parent;
  e.name <- name;
  set_fh t i fh;
  match t.server.S.identity ~fh with
  | Ok id -> Hashtbl.replace t.id2oid id i
  | Error _ -> bug "identity of fresh object %d failed" i

let unregister t i =
  let e = t.entries.(i) in
  (match e.fh with
  | Some fh ->
    Hashtbl.remove t.fh2oid fh;
    (match t.server.S.identity ~fh with
    | Ok id -> Hashtbl.remove t.id2oid id
    | Error _ -> ())
  | None -> ());
  e.fh <- None

(* After a rename, implementations with path-dependent handles (e.g. the
   hash file system) hand out new handles for the whole moved subtree.
   Recover them through lookup + the persistent identity map. *)
let rec refresh_subtree t i =
  let e = t.entries.(i) in
  match t.server.S.lookup ~dir:(location_fh t e) ~name:e.name with
  | Error _ -> bug "refresh: object %d vanished from %d/%s" i e.parent e.name
  | Ok (fh, _) ->
    if not (Option.equal String.equal e.fh (Some fh)) then set_fh t i fh;
    if e.ftype = Dir then refresh_children t i

(* The only hidden name is the staging directory, at the root: seeing it
   records its handle, which is how [restart] finds it again. *)
and refresh_children t i =
  match t.server.S.readdir ~dir:(entry_fh t i) with
  | Error _ -> bug "refresh: readdir of %d failed" i
  | Ok listing ->
    List.iter
      (fun (name, cfh) ->
        if String.length name > 0 && name.[0] = '#' then t.staging_fh <- cfh
        else
          match t.server.S.identity ~fh:cfh with
          | Error _ -> bug "refresh: identity of %s failed" name
          | Ok id -> (
            match Hashtbl.find_opt t.id2oid id with
            | None -> bug "refresh: unknown object %s" name
            | Some ci ->
              let ce = t.entries.(ci) in
              if not (Option.equal String.equal ce.fh (Some cfh)) then set_fh t ci cfh;
              ce.parent <- i;
              ce.name <- name;
              if ce.ftype = Dir then refresh_children t ci))
      listing

(* Slot [i]'s object now sits at [parent]/[name]. *)
let relocate t i ~parent ~name =
  let e = t.entries.(i) in
  e.parent <- parent;
  e.name <- name;
  refresh_subtree t i

(* --- abstract views ---------------------------------------------------------- *)

let oid_of t i = { index = i; gen = t.entries.(i).gen }

let abstract_dir_entries t i =
  match t.server.S.readdir ~dir:(entry_fh t i) with
  | Error _ -> bug "readdir of %d failed" i
  | Ok listing ->
    listing
    |> List.filter_map (fun (name, cfh) ->
           if String.length name > 0 && name.[0] = '#' then None
           else
             match Hashtbl.find_opt t.fh2oid cfh with
             | Some ci -> Some (name, oid_of t ci)
             | None -> bug "readdir: handle for %s not in rep" name)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let concrete_attr t i =
  match t.server.S.getattr ~fh:(entry_fh t i) with
  | Ok a -> a
  | Error _ -> bug "getattr of %d failed" i

(* Abstract fattr: everything deterministic; concrete sizes and times are
   replaced by abstract ones. *)
let build_fattr t i =
  let e = t.entries.(i) in
  let ca = concrete_attr t i in
  let size =
    match e.ftype with
    | Reg -> ca.S.a_size
    | Dir -> Spec.dir_size (abstract_dir_entries t i)
    | Lnk -> (
      match t.server.S.readlink ~fh:(entry_fh t i) with
      | Ok target -> String.length target
      | Error _ -> bug "readlink of %d failed" i)
  in
  {
    ftype = e.ftype;
    mode = ca.S.a_mode;
    nlink = (match e.ftype with Dir -> 2 | Reg | Lnk -> 1);
    uid = ca.S.a_uid;
    gid = ca.S.a_gid;
    size;
    fsid = 1;
    fileid = i;
    atime = e.mtime;
    mtime = e.mtime;
    ctime = e.ctime;
  }

let resolve t (o : oid) =
  if o.index < 0 || o.index >= Array.length t.entries then Error Estale
  else begin
    let e = t.entries.(o.index) in
    if e.fh = None || e.gen <> o.gen then Error Estale else Ok o.index
  end

let find_free t =
  let rec loop i =
    if i >= Array.length t.entries then None
    else if t.entries.(i).fh = None then Some i
    else loop (i + 1)
  in
  loop 1

let fresh_staging_name t =
  t.staging_seq <- t.staging_seq + 1;
  Printf.sprintf "s%d" t.staging_seq

(* Is directory [cand] equal to [root] or inside its subtree?  Walk the rep's
   parent chain (deterministic, no server calls). *)
let under t ~root cand =
  let rec walk at steps =
    if steps > Array.length t.entries then false
    else if at = root then true
    else if at = 0 then false
    else walk t.entries.(at).parent (steps + 1)
  in
  walk cand 0

(* The rep slot of directory [dir]'s child [name], if it has one. *)
let child t dir name =
  match t.server.S.lookup ~dir:(entry_fh t dir) ~name with
  | Error _ -> None
  | Ok (cfh, _) -> (
    match Hashtbl.find_opt t.fh2oid cfh with
    | None -> bug "handle for %d/%s not in rep" dir name
    | found -> found)

(* The one place concrete objects are built, for Create, Mkdir, Symlink and
   put_objs; [target] is read for symlinks only. *)
let make_concrete t ~dir ~name ~ftype ~target ~mode ~uid ~gid =
  match ftype with
  | Reg -> t.server.S.create ~dir ~name ~mode ~uid ~gid
  | Dir -> t.server.S.mkdir ~dir ~name ~mode ~uid ~gid
  | Lnk -> t.server.S.symlink ~dir ~name ~target ~mode ~uid ~gid

(* The one place they are deleted, for Remove, Rmdir and put_objs. *)
let remove_concrete t ~dir ~name ftype =
  match ftype with
  | Dir -> t.server.S.rmdir ~dir ~name
  | Reg | Lnk -> t.server.S.remove ~dir ~name

(* --- the execute upcall ------------------------------------------------------ *)

let err e = Proto.R_err e

let touch t i ~ts =
  let e = t.entries.(i) in
  e.mtime <- ts;
  e.ctime <- ts

let with_obj t o k = match resolve t o with Error e -> err e | Ok i -> k i

let with_dir t o k = with_obj t o (fun i -> if t.entries.(i).ftype <> Dir then err Enotdir else k i)

let with_named_dir t o name k =
  with_dir t o (fun i -> if not (name_ok name) then err Einval else k i)

(* Create, Mkdir and Symlink: allocate the lowest free slot and build the
   object there. *)
let do_create t ~modify ~ts ~dir:i ~name ~ftype ?(target = "") (s : sattr) =
  match child t i name with
  | Some _ -> err Eexist
  | None -> (
    match find_free t with
    | None -> err Enospc
    | Some slot -> (
      modify slot;
      modify i;
      let mode =
        Option.value s.s_mode ~default:(match ftype with Reg -> 0o644 | Dir -> 0o755 | Lnk -> 0o777)
      in
      match
        make_concrete t ~dir:(entry_fh t i) ~name ~ftype ~target ~mode
          ~uid:(Option.value s.s_uid ~default:0)
          ~gid:(Option.value s.s_gid ~default:0)
      with
      | Error e -> err e
      | Ok (cfh, _) ->
        register t slot ~gen:(t.entries.(slot).gen + 1) ~fh:cfh ~ftype ~parent:i ~name
          ~mtime:ts ~ctime:ts;
        touch t i ~ts;
        Proto.R_create (oid_of t slot, build_fattr t slot)))

(* Remove and Rmdir differ only in the type test. *)
let do_remove t ~modify ~ts ~dir:i ~name ~rmdir =
  match child t i name with
  | None -> err Enoent
  | Some ci -> (
    let ftype = t.entries.(ci).ftype in
    match (rmdir, ftype) with
    | false, Dir -> err Eisdir
    | true, (Reg | Lnk) -> err Enotdir
    | true, Dir when abstract_dir_entries t ci <> [] -> err Enotempty
    | true, Dir | false, (Reg | Lnk) -> (
      modify ci;
      modify i;
      match remove_concrete t ~dir:(entry_fh t i) ~name ftype with
      | Error _ -> err Eio
      | Ok () ->
        unregister t ci;
        touch t i ~ts;
        Proto.R_ok))

let execute_call t ~modify ~ts (call : Proto.call) : Proto.reply =
  match call with
  | Getattr o -> with_obj t o (fun i -> Proto.R_attr (build_fattr t i))
  | Setattr (o, s) ->
    with_obj t o (fun i ->
        let e = t.entries.(i) in
        match (e.ftype, s.s_size) with
        | Dir, Some _ -> err Eisdir
        | Lnk, Some _ -> err Einval
        | Reg, Some size when size > max_file_size -> err Efbig
        | (Reg | Dir | Lnk), _ -> (
          let csattr =
            { S.c_mode = s.s_mode; c_uid = s.s_uid; c_gid = s.s_gid; c_size = s.s_size }
          in
          modify i;
          match t.server.S.setattr ~fh:(entry_fh t i) csattr with
          | Error _ -> err Eio
          | Ok _ ->
            e.ctime <- ts;
            (match (s.s_mtime, s.s_size) with
            | Some m, _ -> e.mtime <- m
            | None, Some _ -> e.mtime <- ts
            | None, None -> ());
            Proto.R_attr (build_fattr t i)))
  | Lookup (o, name) ->
    with_named_dir t o name (fun i ->
        match child t i name with
        | None -> err Enoent
        | Some ci -> Proto.R_lookup (oid_of t ci, build_fattr t ci))
  | Readlink o ->
    with_obj t o (fun i ->
        if t.entries.(i).ftype <> Lnk then err Einval
        else
          match t.server.S.readlink ~fh:(entry_fh t i) with
          | Ok target -> Proto.R_readlink target
          | Error _ -> err Eio)
  | Read (o, off, count) ->
    with_obj t o (fun i ->
        match t.entries.(i).ftype with
        | Dir -> err Eisdir
        | Lnk -> err Einval
        | Reg -> (
          match t.server.S.read ~fh:(entry_fh t i) ~off ~count with
          | Ok data -> Proto.R_read (data, build_fattr t i)
          | Error _ -> err Eio))
  | Write (o, off, data) ->
    with_obj t o (fun i ->
        match t.entries.(i).ftype with
        | Dir -> err Eisdir
        | Lnk -> err Einval
        | Reg ->
          if off + String.length data > max_file_size then err Efbig
          else begin
            modify i;
            match t.server.S.write ~fh:(entry_fh t i) ~off ~data with
            | Error _ -> err Eio
            | Ok () ->
              touch t i ~ts;
              Proto.R_attr (build_fattr t i)
          end)
  | Create (o, name, s) ->
    with_named_dir t o name (fun i -> do_create t ~modify ~ts ~dir:i ~name ~ftype:Reg s)
  | Mkdir (o, name, s) ->
    with_named_dir t o name (fun i -> do_create t ~modify ~ts ~dir:i ~name ~ftype:Dir s)
  | Symlink (o, name, target, s) ->
    with_named_dir t o name (fun i ->
        if String.length target > 1024 then err Einval
        else do_create t ~modify ~ts ~dir:i ~name ~ftype:Lnk ~target s)
  | Remove (o, name) ->
    with_named_dir t o name (fun i -> do_remove t ~modify ~ts ~dir:i ~name ~rmdir:false)
  | Rmdir (o, name) ->
    with_named_dir t o name (fun i -> do_remove t ~modify ~ts ~dir:i ~name ~rmdir:true)
  | Rename (so, sn, dd, dn) ->
    with_named_dir t so sn (fun si ->
        with_named_dir t dd dn (fun di ->
            match child t si sn with
            | None -> err Enoent
            | Some ci ->
              if si = di && String.equal sn dn then Proto.R_ok
              else begin
                let child_is_dir = t.entries.(ci).ftype = Dir in
                if child_is_dir && under t ~root:ci di then err Einval
                else begin
                  (* Validate the destination against the abstract rules
                     before letting the implementation overwrite it. *)
                  let victim =
                    match child t di dn with
                    | None -> Ok None
                    | Some vi -> (
                      match (child_is_dir, t.entries.(vi).ftype) with
                      | true, Dir ->
                        if abstract_dir_entries t vi = [] then Ok (Some vi)
                        else Error Enotempty
                      | true, (Reg | Lnk) -> Error Enotdir
                      | false, Dir -> Error Eisdir
                      | false, (Reg | Lnk) -> Ok (Some vi))
                  in
                  match victim with
                  | Error e -> err e
                  | Ok victim -> (
                    Option.iter modify victim;
                    modify si;
                    modify di;
                    match
                      t.server.S.rename ~sdir:(entry_fh t si) ~sname:sn ~ddir:(entry_fh t di)
                        ~dname:dn
                    with
                    | Error _ -> err Eio
                    | Ok () ->
                      Option.iter (unregister t) victim;
                      relocate t ci ~parent:di ~name:dn;
                      touch t si ~ts;
                      touch t di ~ts;
                      Proto.R_ok)
                end
              end))
  | Readdir o -> with_dir t o (fun i -> Proto.R_readdir (abstract_dir_entries t i))
  | Statfs ->
    let free =
      Array.fold_left (fun acc (e : rentry) -> if e.fh = None then acc + 1 else acc) 0 t.entries
    in
    Proto.R_statfs { total_slots = Array.length t.entries; free_slots = free }

(* --- the abstraction function (get_obj) -------------------------------------- *)

let get_obj t i =
  let e = t.entries.(i) in
  match e.fh with
  | None -> Spec.encode_entry { Spec.gen = e.gen; obj = Spec.Null }
  | Some fh ->
    let ca = concrete_attr t i in
    let meta =
      { Spec.mode = ca.S.a_mode; uid = ca.S.a_uid; gid = ca.S.a_gid; mtime = e.mtime; ctime = e.ctime }
    in
    let obj =
      match e.ftype with
      | Reg -> (
        match t.server.S.read ~fh ~off:0 ~count:ca.S.a_size with
        | Ok data -> Spec.File { meta; data }
        | Error _ -> bug "get_obj: read of %d failed" i)
      | Dir -> Spec.Directory { meta; entries = abstract_dir_entries t i }
      | Lnk -> (
        match t.server.S.readlink ~fh with
        | Ok target -> Spec.Symlink { meta; target }
        | Error _ -> bug "get_obj: readlink of %d failed" i)
    in
    Spec.encode_entry { Spec.gen = e.gen; obj }

(* --- the inverse abstraction function (put_objs) ----------------------------- *)

let move_to_staging t i =
  let e = t.entries.(i) in
  let tmp = fresh_staging_name t in
  (match
     t.server.S.rename ~sdir:(location_fh t e) ~sname:e.name ~ddir:t.staging_fh ~dname:tmp
   with
  | Ok () -> ()
  | Error _ -> bug "staging move of %d failed" i);
  relocate t i ~parent:staging_parent ~name:tmp

(* Delete slot [i]'s object, which sits in staging, and free the slot. *)
let delete_staged t i =
  let e = t.entries.(i) in
  (match remove_concrete t ~dir:t.staging_fh ~name:e.name e.ftype with
  | Ok () -> ()
  | Error _ -> bug "deletion of %d failed" i);
  unregister t i

let write_data t i ~fh data =
  if not (String.equal data "") then
    match t.server.S.write ~fh ~off:0 ~data with
    | Ok () -> ()
    | Error _ -> bug "write of %d failed" i

(* Case 3 of Section 3.3: build abstract object [en] afresh in staging as
   slot [i]. *)
let make_staged t i (en : Spec.entry) =
  let ftype, target, (m : Spec.meta), data =
    match en.obj with
    | Spec.File { meta; data } -> (Reg, "", meta, data)
    | Spec.Directory { meta; _ } -> (Dir, "", meta, "")
    | Spec.Symlink { meta; target } -> (Lnk, target, meta, "")
    | Spec.Null -> bug "make_staged: null object %d" i
  in
  let name = fresh_staging_name t in
  match
    make_concrete t ~dir:t.staging_fh ~name ~ftype ~target ~mode:m.mode ~uid:m.uid ~gid:m.gid
  with
  | Error _ -> bug "creation of %d failed" i
  | Ok (fh, _) ->
    write_data t i ~fh data;
    register t i ~gen:en.gen ~fh ~ftype ~parent:staging_parent ~name ~mtime:m.mtime
      ~ctime:m.ctime

(* Case 1 of Section 3.3: the object in slot [i] stays and adopts [m]'s
   attributes ([size] resizes a file), abstract times and [gen]. *)
let adopt t i ~gen ?size (m : Spec.meta) =
  (match
     t.server.S.setattr ~fh:(entry_fh t i)
       { S.c_mode = Some m.mode; c_uid = Some m.uid; c_gid = Some m.gid; c_size = size }
   with
  | Ok _ -> ()
  | Error _ -> bug "setattr of %d failed" i);
  let e = t.entries.(i) in
  e.mtime <- m.mtime;
  e.ctime <- m.ctime;
  e.gen <- gen

let put_objs t objs =
  let batch = List.map (fun (i, data) -> (i, Spec.decode_entry data)) objs in
  (* Phase 1: discard pass — objects whose slot is reassigned or freed are
     evacuated to the staging directory (case 2 / deletion of Section 3.3).
     Slots that are (or stay) free still adopt the batch's generation
     number: generations are part of the abstract state and must match the
     certified checkpoint exactly, or later allocations diverge. *)
  let discarded = ref [] in
  List.iter
    (fun (i, (en : Spec.entry)) ->
      let e = t.entries.(i) in
      if e.fh <> None && (en.obj = Spec.Null || en.gen <> e.gen) then begin
        if i = 0 then bug "root cannot be discarded";
        move_to_staging t i;
        discarded := i :: !discarded
      end;
      if en.obj = Spec.Null then e.gen <- en.gen)
    batch;
  (* Phase 2: evacuate stale entries of every directory in the batch, so
     link-in cannot hit name collisions.  Children of discarded directories
     always evacuate. *)
  List.iter
    (fun (i, (en : Spec.entry)) ->
      match en.obj with
      | Spec.Directory { entries = desired; _ }
        when t.entries.(i).fh <> None && t.entries.(i).gen = en.gen ->
        (* Only directories kept in place reconcile here; discarded ones are
           emptied below.  A current child stays iff the desired listing
           binds the same slot to the same name. *)
        let current = abstract_dir_entries t i in
        List.iter
          (fun (name, o) ->
            let keep =
              match List.assoc_opt name desired with
              | Some want -> want.index = o.index
              | None -> false
            in
            if not keep then move_to_staging t o.index)
          current
      | Spec.Directory _ | Spec.File _ | Spec.Symlink _ | Spec.Null -> ())
    batch;
  (* Children of discarded directories were evacuated when the directory
     itself still held them?  No: the directory moved wholesale to staging
     with its children inside.  Evacuate them now so the directory can be
     deleted. *)
  List.iter
    (fun i ->
      if t.entries.(i).ftype = Dir then begin
        match t.server.S.readdir ~dir:(entry_fh t i) with
        | Error _ -> bug "readdir of discarded dir %d failed" i
        | Ok listing ->
          List.iter
            (fun (_, cfh) ->
              match Hashtbl.find_opt t.fh2oid cfh with
              | Some ci -> move_to_staging t ci
              | None -> bug "discarded dir child not in rep")
            listing
      end)
    !discarded;
  (* Phase 3: delete discarded objects (now empty / childless). *)
  List.iter (delete_staged t) !discarded;
  (* Phase 4: create brand-new objects in staging (case 3). *)
  List.iter
    (fun (i, (en : Spec.entry)) ->
      if en.obj <> Spec.Null && t.entries.(i).fh = None then make_staged t i en)
    batch;
  (* Phase 5: update objects kept in place (case 1). *)
  List.iter
    (fun (i, (en : Spec.entry)) ->
      match en.obj with
      | Spec.Null -> ()
      | Spec.File { meta; data } ->
        (* Freshly created files already hold their data; rewriting is
           idempotent and keeps this pass simple. *)
        adopt t i ~gen:en.gen ~size:(String.length data) meta;
        write_data t i ~fh:(entry_fh t i) data
      | Spec.Directory { meta; _ } -> adopt t i ~gen:en.gen meta
      | Spec.Symlink { meta; target } ->
        (* Symlink targets are immutable concretely: recreate if changed. *)
        let current = match t.server.S.readlink ~fh:(entry_fh t i) with Ok x -> x | Error _ -> "" in
        if String.equal current target then adopt t i ~gen:en.gen meta
        else begin
          move_to_staging t i;
          delete_staged t i;
          make_staged t i en
        end)
    batch;
  (* Phase 6: link every directory's children into place. *)
  List.iter
    (fun (i, (en : Spec.entry)) ->
      match en.obj with
      | Spec.Directory { entries = desired; _ } ->
        List.iter
          (fun (name, o) ->
            let ce = t.entries.(o.index) in
            if ce.fh = None then bug "link-in: missing child %d for %s" o.index name;
            if not (ce.parent = i && String.equal ce.name name) then begin
              (match
                 t.server.S.rename ~sdir:(location_fh t ce) ~sname:ce.name
                   ~ddir:(entry_fh t i) ~dname:name
               with
              | Ok () -> ()
              | Error _ -> bug "link-in of %s into %d failed" name i);
              relocate t o.index ~parent:i ~name
            end)
          desired
      | Spec.File _ | Spec.Symlink _ | Spec.Null -> ())
    batch

(* --- restart (proactive recovery, Section 3.4) -------------------------------- *)

(* Forget every volatile handle, then walk the tree depth-first from the
   root, recovering each object's oid from the persistent <fsid,fileid>
   map (and the staging directory's handle on the way). *)
let restart t =
  t.server.S.restart ();
  Hashtbl.reset t.fh2oid;
  Array.iter (fun (e : rentry) -> e.fh <- None) t.entries;
  set_fh t 0 (t.server.S.root ());
  refresh_children t 0

(* --- construction ------------------------------------------------------------- *)

let make ?(max_skew_us = 5_000_000L) ~server ~n_objects () =
  let t =
    {
      server;
      entries =
        Array.init n_objects (fun _ ->
            {
              gen = 0;
              fh = None;
              ftype = Reg;
              mtime = 0L;
              ctime = 0L;
              parent = 0;
              name = "";
            });
      fh2oid = Hashtbl.create 256;
      id2oid = Hashtbl.create 256;
      staging_fh = "";
      staging_seq = 0;
    }
  in
  let root_fh = server.S.root () in
  register t 0 ~gen:0 ~fh:root_fh ~ftype:Dir ~parent:0 ~name:"" ~mtime:0L ~ctime:0L;
  (match server.S.mkdir ~dir:root_fh ~name:staging_name ~mode:0o700 ~uid:0 ~gid:0 with
  | Ok (fh, _) -> t.staging_fh <- fh
  | Error _ -> bug "staging mkdir failed");
  let execute ~client:_ ~operation ~nondet ~read_only:_ ~modify =
    let ts = Service.clock_of_nondet nondet in
    let reply =
      match Proto.decode_call operation with
      | call -> execute_call t ~modify ~ts call
      | exception Base_codec.Xdr.Decode_error _ -> err Einval
    in
    Proto.encode_reply reply
  in
  {
    Service.name = server.S.name;
    n_objects;
    execute;
    get_obj = (fun i -> get_obj t i);
    put_objs = (fun objs -> put_objs t objs);
    restart = (fun () -> restart t);
    propose_nondet = (fun ~clock_us ~operation:_ -> Service.nondet_of_clock clock_us);
    check_nondet =
      (fun ~clock_us ~operation:_ ~nondet ->
        Service.default_check_nondet ~max_skew_us ~clock_us ~nondet);
    oids_of_op =
      (* Routing must agree across clients and replicas, so the footprint is
         a pure function of the encoded call; malformed operations carry no
         routing information and fall to shard 0, where [execute] turns
         them into EINVAL under that shard's order. *)
      (fun ~operation ->
        match Proto.decode_call operation with
        | call -> Proto.footprint call
        | exception Base_codec.Xdr.Decode_error _ -> []);
  }
