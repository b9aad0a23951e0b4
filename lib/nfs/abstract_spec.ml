(** The common abstract specification [S] of the file service (Section 3.1):
    the abstract objects and their canonical encoding.

    The abstract state is a fixed-size array of entries, each a pair of a
    generation number and an object.  Objects are files (byte array),
    directories (lexicographically sorted [name -> oid] sequences), symbolic
    links, or the special null object marking a free entry.  Entry 0 is the
    root directory.

    {!encode_entry} defines the canonical abstract-object encoding that all
    replicas' [get_obj] upcalls produce.  The operational semantics every
    conformance wrapper is tested against lives with the tests
    (test/nfs_model.ml). *)

open Nfs_types
module Xdr = Base_codec.Xdr

type meta = { mode : int; uid : int; gid : int; mtime : int64; ctime : int64 }

type obj =
  | Null
  | File of { meta : meta; data : string }
  | Directory of { meta : meta; entries : (string * oid) list (* sorted by name *) }
  | Symlink of { meta : meta; target : string }

type entry = { gen : int; obj : obj }

(* --- canonical encoding ---------------------------------------------------- *)

let enc_meta e (m : meta) =
  Xdr.u32 e m.mode;
  Xdr.u32 e m.uid;
  Xdr.u32 e m.gid;
  Xdr.i64 e m.mtime;
  Xdr.i64 e m.ctime

let enc_entry e (en : entry) =
  Xdr.u32 e en.gen;
  match en.obj with
  | Null -> Xdr.u32 e 0
  | File { meta; data } ->
    Xdr.u32 e 1;
    enc_meta e meta;
    Xdr.opaque e data
  | Directory { meta; entries } ->
    Xdr.u32 e 2;
    enc_meta e meta;
    Xdr.list e
      (fun e (name, o) ->
        Xdr.str e name;
        Xdr.u32 e o.index;
        Xdr.u32 e o.gen)
      entries
  | Symlink { meta; target } ->
    Xdr.u32 e 3;
    enc_meta e meta;
    Xdr.str e target

let encode_entry en = Xdr.encode enc_entry en

let dec_meta d =
  let mode = Xdr.read_u32 d in
  let uid = Xdr.read_u32 d in
  let gid = Xdr.read_u32 d in
  let mtime = Xdr.read_i64 d in
  let ctime = Xdr.read_i64 d in
  { mode; uid; gid; mtime; ctime }

let dec_entry d =
  let gen = Xdr.read_u32 d in
  let obj =
    match Xdr.read_u32 d with
    | 0 -> Null
    | 1 ->
      let meta = dec_meta d in
      File { meta; data = Xdr.read_opaque d }
    | 2 ->
      let meta = dec_meta d in
      Directory
        {
          meta;
          entries =
            Xdr.read_list d (fun d ->
                let name = Xdr.read_str d in
                let index = Xdr.read_u32 d in
                let gen = Xdr.read_u32 d in
                (name, { index; gen }));
        }
    | 3 ->
      let meta = dec_meta d in
      Symlink { meta; target = Xdr.read_str d }
    | n -> raise (Xdr.Decode_error (Printf.sprintf "bad abstract object tag %d" n))
  in
  { gen; obj }

let decode_entry s = Xdr.decode dec_entry s

let dir_size entries = 32 + (24 * List.length entries)
