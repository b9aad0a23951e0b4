(** The NFS-server-like interface every off-the-shelf file-system
    implementation exposes, and behind which the conformance wrapper treats
    it as a black box.

    Concrete file handles are opaque strings whose format differs per
    implementation, exactly as NFS implementations choose arbitrary handle
    values.  Handles are {e volatile}: after {!t.restart} (a server reboot
    during proactive recovery) old handles return [Estale] and objects must
    be re-found from the root — except through the persistent
    [<fsid, fileid>] identity exposed by {!t.identity} (Section 3.4).

    Each implementation keeps its own notion of time (fed by the replica's
    drifting local clock), its own allocation order, and its own readdir
    order; none of this non-determinism may leak through the wrapper. *)

type attr = {
  a_ftype : Base_nfs.Nfs_types.ftype;
  a_mode : int;
  a_uid : int;
  a_gid : int;
  a_size : int;
  a_fsid : int;
  a_fileid : int;
  a_atime : int64;  (** the implementation's own clock — divergent! *)
  a_mtime : int64;
  a_ctime : int64;
}

(** Concrete settable attributes (times omitted: the wrapper owns abstract
    time). *)
type csattr = {
  c_mode : int option;
  c_uid : int option;
  c_gid : int option;
  c_size : int option;
}

type err = Base_nfs.Nfs_types.err

type t = {
  name : string;
  root : unit -> string;
  lookup : dir:string -> name:string -> (string * attr, err) result;
  getattr : fh:string -> (attr, err) result;
  setattr : fh:string -> csattr -> (attr, err) result;
  read : fh:string -> off:int -> count:int -> (string, err) result;
  write : fh:string -> off:int -> data:string -> (unit, err) result;
  create : dir:string -> name:string -> mode:int -> uid:int -> gid:int -> (string * attr, err) result;
  mkdir : dir:string -> name:string -> mode:int -> uid:int -> gid:int -> (string * attr, err) result;
  symlink :
    dir:string -> name:string -> target:string -> mode:int -> uid:int -> gid:int ->
    (string * attr, err) result;
  readlink : fh:string -> (string, err) result;
  remove : dir:string -> name:string -> (unit, err) result;
  rmdir : dir:string -> name:string -> (unit, err) result;
  rename : sdir:string -> sname:string -> ddir:string -> dname:string -> (unit, err) result;
  readdir : dir:string -> ((string * string) list, err) result;
      (** (name, child handle) pairs in the implementation's own order *)
  identity : fh:string -> (int * int, err) result;  (** persistent [<fsid, fileid>] *)
  restart : unit -> unit;  (** reboot: volatile handles become stale *)
  corrupt : prng:Base_util.Prng.t -> count:int -> int;
      (** fault injection: silently damage up to [count] stored file objects
          (bit rot, bad sectors); returns how many were damaged *)
  set_poison : string option -> unit;
      (** arm the implementation's deterministic bug, if it has one: further
          operations involving names containing the poison string fail *)
}

(* Helpers shared by the implementations (not part of the interface). *)

(* The implementations' deterministic latent bug: when armed with [poison],
   a write whose payload contains the poison string is silently corrupted
   before it reaches the disk. *)
let poison_filter poison data =
  match poison with
  | Some p when Base_util.Str_contains.contains data p ->
    String.map (fun c -> Char.chr (Char.code c lxor 0x01)) data
  | Some _ | None -> data

let string_splice base ~off ~data ~max_size =
  if off + String.length data > max_size then Error Base_nfs.Nfs_types.Efbig
  else begin
    let len = String.length base in
    let base = if off > len then base ^ String.make (off - len) '\000' else base in
    let head = String.sub base 0 off in
    let tail_start = off + String.length data in
    let tail =
      if tail_start < String.length base then
        String.sub base tail_start (String.length base - tail_start)
      else ""
    in
    Ok (head ^ data ^ tail)
  end

let string_resize base size =
  if size <= String.length base then String.sub base 0 size
  else base ^ String.make (size - String.length base) '\000'

let substr base ~off ~count =
  let len = String.length base in
  let off = min off len in
  let count = min count (len - off) in
  String.sub base off count
