(** Client-side library for the replicated file service.

    Plays the role of the relay + NFS client of Figure 2: it turns typed
    file-system calls into encoded operations submitted through an [invoke]
    function (normally {!Base_core.Runtime.invoke_sync}) and decodes the
    replies.  Read-only calls are flagged so the replication library can use
    its read-only optimisation. *)

open Nfs_types

type invoke = read_only:bool -> operation:string -> string

type t = { invoke : invoke }

let make invoke = { invoke }

exception Protocol_error of string

let call t (c : Nfs_proto.call) =
  let operation = Nfs_proto.encode_call c in
  let read_only = Nfs_proto.read_only_call c in
  match Nfs_proto.decode_reply (t.invoke ~read_only ~operation) with
  | reply -> reply
  | exception Base_codec.Xdr.Decode_error m -> raise (Protocol_error m)

let unexpected what = raise (Protocol_error ("unexpected reply to " ^ what))

let getattr t o =
  match call t (Getattr o) with
  | R_attr a -> Ok a
  | R_err e -> Error e
  | _ -> unexpected "getattr"

let setattr t o s =
  match call t (Setattr (o, s)) with
  | R_attr a -> Ok a
  | R_err e -> Error e
  | _ -> unexpected "setattr"

let lookup t dir name =
  match call t (Lookup (dir, name)) with
  | R_lookup (o, a) -> Ok (o, a)
  | R_err e -> Error e
  | _ -> unexpected "lookup"

let read t o ~off ~count =
  match call t (Read (o, off, count)) with
  | R_read (data, a) -> Ok (data, a)
  | R_err e -> Error e
  | _ -> unexpected "read"

let write t o ~off data =
  match call t (Write (o, off, data)) with
  | R_attr a -> Ok a
  | R_err e -> Error e
  | _ -> unexpected "write"

let create t dir name s =
  match call t (Create (dir, name, s)) with
  | R_create (o, a) -> Ok (o, a)
  | R_err e -> Error e
  | _ -> unexpected "create"

let remove t dir name =
  match call t (Remove (dir, name)) with
  | R_ok -> Ok ()
  | R_err e -> Error e
  | _ -> unexpected "remove"

let symlink t dir name target s =
  match call t (Symlink (dir, name, target, s)) with
  | R_create (o, a) -> Ok (o, a)
  | R_err e -> Error e
  | _ -> unexpected "symlink"

let mkdir t dir name s =
  match call t (Mkdir (dir, name, s)) with
  | R_create (o, a) -> Ok (o, a)
  | R_err e -> Error e
  | _ -> unexpected "mkdir"

let readdir t dir =
  match call t (Readdir dir) with
  | R_readdir entries -> Ok entries
  | R_err e -> Error e
  | _ -> unexpected "readdir"

(* --- path conveniences -------------------------------------------------------- *)

let ok = function Ok v -> v | Error e -> failwith ("nfs error: " ^ err_to_string e)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> not (String.equal s ""))

let mkdir_p t path =
  List.fold_left
    (fun dir name ->
      match lookup t dir name with
      | Ok (o, _) -> o
      | Error Enoent -> fst (ok (mkdir t dir name sattr_empty))
      | Error e -> failwith ("mkdir_p: " ^ err_to_string e))
    root_oid (split_path path)

let write_file t dir name ~chunk data =
  let o =
    match lookup t dir name with
    | Ok (o, _) -> o
    | Error Enoent -> fst (ok (create t dir name sattr_empty))
    | Error e -> failwith ("write_file: " ^ err_to_string e)
  in
  let len = String.length data in
  let rec loop off =
    if off < len then begin
      let n = min chunk (len - off) in
      ignore (ok (write t o ~off (String.sub data off n)));
      loop (off + n)
    end
  in
  loop 0;
  o

let read_file t o ~chunk =
  let buf = Buffer.create 1024 in
  let rec loop off =
    let data, _ = ok (read t o ~off ~count:chunk) in
    Buffer.add_string buf data;
    if String.length data = chunk then loop (off + chunk)
  in
  loop 0;
  Buffer.contents buf
