(** Core types of the NFS-like file service (RFC 1094 subset).

    The client-visible file handle is an {!oid}: the index of the object in
    the abstract-state array concatenated with its generation number, as in
    Section 3.1 of the paper.  Concrete (per-implementation) file handles
    are opaque strings and never escape the conformance wrapper. *)

type oid = { index : int; gen : int }

let oid_equal a b = a.index = b.index && a.gen = b.gen

let root_oid = { index = 0; gen = 0 }

type ftype = Reg | Dir | Lnk

let ftype_to_string = function Reg -> "REG" | Dir -> "DIR" | Lnk -> "LNK"

(** Abstract file attributes, every field deterministic.  [fileid] is the
    oid index; [fsid] is constant; [atime] mirrors [mtime] (the service
    behaves as a [noatime] mount so reads stay read-only). *)
type fattr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  fsid : int;
  fileid : int;
  atime : int64;  (** microseconds *)
  mtime : int64;
  ctime : int64;
}

(** Settable attributes ([None] = leave unchanged). *)
type sattr = {
  s_mode : int option;
  s_uid : int option;
  s_gid : int option;
  s_size : int option;
  s_mtime : int64 option;
}

let sattr_empty = { s_mode = None; s_uid = None; s_gid = None; s_size = None; s_mtime = None }

type err =
  | Eperm
  | Enoent
  | Eio
  | Eexist
  | Enotdir
  | Eisdir
  | Einval
  | Efbig
  | Enospc
  | Enotempty
  | Estale

let err_to_string = function
  | Eperm -> "EPERM"
  | Enoent -> "ENOENT"
  | Eio -> "EIO"
  | Eexist -> "EEXIST"
  | Enotdir -> "ENOTDIR"
  | Eisdir -> "EISDIR"
  | Einval -> "EINVAL"
  | Efbig -> "EFBIG"
  | Enospc -> "ENOSPC"
  | Enotempty -> "ENOTEMPTY"
  | Estale -> "ESTALE"

let err_code = function
  | Eperm -> 1
  | Enoent -> 2
  | Eio -> 5
  | Eexist -> 17
  | Enotdir -> 20
  | Eisdir -> 21
  | Einval -> 22
  | Efbig -> 27
  | Enospc -> 28
  | Enotempty -> 66
  | Estale -> 70

let err_of_code = function
  | 1 -> Eperm
  | 2 -> Enoent
  | 5 -> Eio
  | 17 -> Eexist
  | 20 -> Enotdir
  | 21 -> Eisdir
  | 22 -> Einval
  | 27 -> Efbig
  | 28 -> Enospc
  | 66 -> Enotempty
  | 70 -> Estale
  | n -> invalid_arg (Printf.sprintf "Nfs_types.err_of_code: %d" n)

(** Service limits, part of the common abstract specification so that every
    implementation rejects the same requests. *)
let max_file_size = 1 lsl 20

(* Names are validated by the conformance wrapper, uniformly across
   implementations.  '#'-prefixed names are reserved for the wrapper's
   hidden staging directory. *)
let name_ok name =
  let len = String.length name in
  len > 0 && len <= 255
  && (not (String.equal name "."))
  && not (String.equal name "..")
  && (not (String.contains name '/'))
  && name.[0] <> '#'
