(** NFS protocol calls and replies, with their XDR wire encodings.

    The encoded call is the opaque [operation] payload carried by the BFT
    request; the encoded reply is the [result] returned through the
    replication library.  Clients and conformance wrappers share these
    codecs, so replies from replicas running different implementations are
    byte-identical whenever they are abstractly equal. *)

open Nfs_types
module Xdr = Base_codec.Xdr

type call =
  | Getattr of oid
  | Setattr of oid * sattr
  | Lookup of oid * string
  | Readlink of oid
  | Read of oid * int * int  (** offset, count *)
  | Write of oid * int * string  (** offset, data *)
  | Create of oid * string * sattr
  | Remove of oid * string
  | Rename of oid * string * oid * string
  | Symlink of oid * string * string * sattr  (** dir, name, target *)
  | Mkdir of oid * string * sattr
  | Rmdir of oid * string
  | Readdir of oid
  | Statfs

type reply =
  | R_err of err
  | R_attr of fattr
  | R_lookup of oid * fattr
  | R_readlink of string
  | R_read of string * fattr
  | R_create of oid * fattr
  | R_ok
  | R_readdir of (string * oid) list
  | R_statfs of { total_slots : int; free_slots : int }

let read_only_call = function
  | Getattr _ | Lookup _ | Readlink _ | Read _ | Readdir _ | Statfs -> true
  | Setattr _ | Write _ | Create _ | Remove _ | Rename _ | Symlink _ | Mkdir _ | Rmdir _ ->
    false

(* The static footprint sharded deployments route by: the slot indices named
   in the call itself.  Rename is the one two-object call — its source and
   destination directories may live in different shards.  Dynamically reached
   slots (a Create's allocated slot, a Remove's child, a Rename overwrite
   victim) are not statically knowable; the runtime constrains them to the
   coordinating shard's range and aborts deterministically otherwise (see
   doc/sharding.md). *)
let footprint = function
  | Getattr o | Setattr (o, _) | Lookup (o, _) | Readlink o
  | Read (o, _, _) | Write (o, _, _)
  | Create (o, _, _) | Remove (o, _)
  | Symlink (o, _, _, _) | Mkdir (o, _, _) | Rmdir (o, _) | Readdir o -> [ o.index ]
  | Rename (so, _, dd, _) ->
    if so.index = dd.index then [ so.index ] else [ so.index; dd.index ]
  | Statfs -> []

(* --- encoders --------------------------------------------------------------- *)

let enc_oid e (o : oid) =
  Xdr.u32 e o.index;
  Xdr.u32 e o.gen

let enc_opt_u32 e v = Xdr.option e Xdr.u32 v

let enc_sattr e (s : sattr) =
  enc_opt_u32 e s.s_mode;
  enc_opt_u32 e s.s_uid;
  enc_opt_u32 e s.s_gid;
  enc_opt_u32 e s.s_size;
  Xdr.option e Xdr.i64 s.s_mtime

let enc_call e = function
  | Getattr o ->
    Xdr.u32 e 1;
    enc_oid e o
  | Setattr (o, s) ->
    Xdr.u32 e 2;
    enc_oid e o;
    enc_sattr e s
  | Lookup (o, name) ->
    Xdr.u32 e 4;
    enc_oid e o;
    Xdr.str e name
  | Readlink o ->
    Xdr.u32 e 5;
    enc_oid e o
  | Read (o, off, count) ->
    Xdr.u32 e 6;
    enc_oid e o;
    Xdr.u32 e off;
    Xdr.u32 e count
  | Write (o, off, data) ->
    Xdr.u32 e 8;
    enc_oid e o;
    Xdr.u32 e off;
    Xdr.opaque e data
  | Create (o, name, s) ->
    Xdr.u32 e 9;
    enc_oid e o;
    Xdr.str e name;
    enc_sattr e s
  | Remove (o, name) ->
    Xdr.u32 e 10;
    enc_oid e o;
    Xdr.str e name
  | Rename (so, sn, do_, dn) ->
    Xdr.u32 e 11;
    enc_oid e so;
    Xdr.str e sn;
    enc_oid e do_;
    Xdr.str e dn
  | Symlink (o, name, target, s) ->
    Xdr.u32 e 13;
    enc_oid e o;
    Xdr.str e name;
    Xdr.str e target;
    enc_sattr e s
  | Mkdir (o, name, s) ->
    Xdr.u32 e 14;
    enc_oid e o;
    Xdr.str e name;
    enc_sattr e s
  | Rmdir (o, name) ->
    Xdr.u32 e 15;
    enc_oid e o;
    Xdr.str e name
  | Readdir o ->
    Xdr.u32 e 16;
    enc_oid e o
  | Statfs -> Xdr.u32 e 17

let encode_call call = Xdr.encode enc_call call

let enc_fattr e (a : fattr) =
  Xdr.u32 e (match a.ftype with Reg -> 1 | Dir -> 2 | Lnk -> 5);
  Xdr.u32 e a.mode;
  Xdr.u32 e a.nlink;
  Xdr.u32 e a.uid;
  Xdr.u32 e a.gid;
  Xdr.u32 e a.size;
  Xdr.u32 e a.fsid;
  Xdr.u32 e a.fileid;
  Xdr.i64 e a.atime;
  Xdr.i64 e a.mtime;
  Xdr.i64 e a.ctime

let enc_reply e = function
  | R_err err ->
    Xdr.u32 e 0;
    Xdr.u32 e (err_code err)
  | R_attr a ->
    Xdr.u32 e 1;
    enc_fattr e a
  | R_lookup (o, a) ->
    Xdr.u32 e 2;
    enc_oid e o;
    enc_fattr e a
  | R_readlink target ->
    Xdr.u32 e 3;
    Xdr.str e target
  | R_read (data, a) ->
    Xdr.u32 e 4;
    Xdr.opaque e data;
    enc_fattr e a
  | R_create (o, a) ->
    Xdr.u32 e 5;
    enc_oid e o;
    enc_fattr e a
  | R_ok -> Xdr.u32 e 6
  | R_readdir entries ->
    Xdr.u32 e 7;
    Xdr.list e
      (fun e (name, o) ->
        Xdr.str e name;
        enc_oid e o)
      entries
  | R_statfs { total_slots; free_slots } ->
    Xdr.u32 e 8;
    Xdr.u32 e total_slots;
    Xdr.u32 e free_slots

let encode_reply reply = Xdr.encode enc_reply reply

(* --- decoders --------------------------------------------------------------- *)

let dec_oid d =
  let index = Xdr.read_u32 d in
  let gen = Xdr.read_u32 d in
  { index; gen }

let dec_opt_u32 d = Xdr.read_option d Xdr.read_u32

let dec_sattr d =
  let s_mode = dec_opt_u32 d in
  let s_uid = dec_opt_u32 d in
  let s_gid = dec_opt_u32 d in
  let s_size = dec_opt_u32 d in
  let s_mtime = Xdr.read_option d Xdr.read_i64 in
  { s_mode; s_uid; s_gid; s_size; s_mtime }

let dec_call d =
  match Xdr.read_u32 d with
  | 1 -> Getattr (dec_oid d)
  | 2 ->
    let o = dec_oid d in
    Setattr (o, dec_sattr d)
  | 4 ->
    let o = dec_oid d in
    Lookup (o, Xdr.read_str d)
  | 5 -> Readlink (dec_oid d)
  | 6 ->
    let o = dec_oid d in
    let off = Xdr.read_u32 d in
    Read (o, off, Xdr.read_u32 d)
  | 8 ->
    let o = dec_oid d in
    let off = Xdr.read_u32 d in
    Write (o, off, Xdr.read_opaque d)
  | 9 ->
    let o = dec_oid d in
    let name = Xdr.read_str d in
    Create (o, name, dec_sattr d)
  | 10 ->
    let o = dec_oid d in
    Remove (o, Xdr.read_str d)
  | 11 ->
    let so = dec_oid d in
    let sn = Xdr.read_str d in
    let dd = dec_oid d in
    Rename (so, sn, dd, Xdr.read_str d)
  | 13 ->
    let o = dec_oid d in
    let name = Xdr.read_str d in
    let target = Xdr.read_str d in
    Symlink (o, name, target, dec_sattr d)
  | 14 ->
    let o = dec_oid d in
    let name = Xdr.read_str d in
    Mkdir (o, name, dec_sattr d)
  | 15 ->
    let o = dec_oid d in
    Rmdir (o, Xdr.read_str d)
  | 16 -> Readdir (dec_oid d)
  | 17 -> Statfs
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad call tag %d" n))

let decode_call s = Xdr.decode dec_call s

let dec_fattr d =
  let ftype =
    match Xdr.read_u32 d with
    | 1 -> Reg
    | 2 -> Dir
    | 5 -> Lnk
    | n -> raise (Xdr.Decode_error (Printf.sprintf "bad ftype %d" n))
  in
  let mode = Xdr.read_u32 d in
  let nlink = Xdr.read_u32 d in
  let uid = Xdr.read_u32 d in
  let gid = Xdr.read_u32 d in
  let size = Xdr.read_u32 d in
  let fsid = Xdr.read_u32 d in
  let fileid = Xdr.read_u32 d in
  let atime = Xdr.read_i64 d in
  let mtime = Xdr.read_i64 d in
  let ctime = Xdr.read_i64 d in
  { ftype; mode; nlink; uid; gid; size; fsid; fileid; atime; mtime; ctime }

let dec_reply d =
  match Xdr.read_u32 d with
  | 0 -> R_err (err_of_code (Xdr.read_u32 d))
  | 1 -> R_attr (dec_fattr d)
  | 2 ->
    let o = dec_oid d in
    R_lookup (o, dec_fattr d)
  | 3 -> R_readlink (Xdr.read_str d)
  | 4 ->
    let data = Xdr.read_opaque d in
    R_read (data, dec_fattr d)
  | 5 ->
    let o = dec_oid d in
    R_create (o, dec_fattr d)
  | 6 -> R_ok
  | 7 ->
    R_readdir
      (Xdr.read_list d (fun d ->
           let name = Xdr.read_str d in
           (name, dec_oid d)))
  | 8 ->
    let total_slots = Xdr.read_u32 d in
    R_statfs { total_slots; free_slots = Xdr.read_u32 d }
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad reply tag %d" n))

let decode_reply s = Xdr.decode dec_reply s
