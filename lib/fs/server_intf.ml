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
}

(* Helpers shared by the string-backed implementations.  Stored contents
   are immutable strings shared with readers: a whole-file read returns the
   stored string itself, and a write builds new contents in one allocation. *)

let substr base ~off ~count =
  let len = String.length base in
  let off = min off len in
  let count = min count (len - off) in
  if off = 0 && count = len then base else String.sub base off count

(* [base] with [data] at [off]: the old head, zeros over any hole past the
   end, [data], then the old tail. *)
let string_splice base ~off ~data ~max_size =
  let len = String.length base and dlen = String.length data in
  let tail = off + dlen in
  if tail > max_size then Error Base_nfs.Nfs_types.Efbig
  else
    let out = Bytes.create (max len tail) in
    Bytes.blit_string base 0 out 0 (min off len);
    Bytes.fill out len (max 0 (off - len)) '\000';
    Bytes.blit_string data 0 out off dlen;
    if tail < len then Bytes.blit_string base tail out tail (len - tail);
    Ok (Bytes.unsafe_to_string out)

let string_resize base size =
  if size <= String.length base then substr base ~off:0 ~count:size
  else
    let out = Bytes.make size '\000' in
    Bytes.blit_string base 0 out 0 (String.length base);
    Bytes.unsafe_to_string out

(* Handles of the form ["<tag>:<field>:<field>"], read in place: no list,
   no substrings, no allocation.  A field is a canonical decimal (what
   [%d] prints for a non-negative int) or a string compared in place, so
   every other spelling of a handle is malformed. *)

(* The index of the second ':' when [fh] starts with [tag] and a ':'; -1
   otherwise. *)
let handle_sep fh tag =
  let rec colon fh i =
    if i >= String.length fh then -1 else if fh.[i] = ':' then i else colon fh (i + 1)
  in
  if String.length fh < 2 || fh.[0] <> tag || fh.[1] <> ':' then -1 else colon fh 2

(* [fh.[pos .. stop - 1]] as a canonical non-negative decimal; -1 if it is
   empty, has a leading zero, a sign or another non-digit, or exceeds
   [max_int]. *)
let handle_int fh ~pos ~stop =
  let rec decimal fh i stop acc =
    if i = stop then acc
    else
      match fh.[i] with
      | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if acc > (max_int - d) / 10 then -1 else decimal fh (i + 1) stop ((acc * 10) + d)
      | _ -> -1
  in
  if pos < 0 || pos >= stop || stop > String.length fh then -1
  else if fh.[pos] = '0' then if stop = pos + 1 then 0 else -1
  else decimal fh pos stop 0

(* Whether [fh] from [pos] to its end is exactly [s]. *)
let handle_tail_is fh ~pos s =
  let rec equal_from fh pos s i =
    i = String.length s || (fh.[pos + i] = s.[i] && equal_from fh pos s (i + 1))
  in
  pos >= 0 && String.length fh - pos = String.length s && equal_from fh pos s 0

(* --- Fault injection, from outside the implementation ------------------------ *)

(* The handle of one implementation's latent bug: [None] = disarmed. *)
type bug = { mutable poison : string option }

(** [with_bug srv] is [srv] with a deterministic latent bug in [write], and
    the handle that arms it: once [poison] is set, a write whose payload
    contains the poison string is silently corrupted (every byte's low bit
    flipped) before it reaches [srv]. *)
let with_bug srv =
  let bug = { poison = None } in
  let write ~fh ~off ~data =
    let data =
      match bug.poison with
      | Some p when Base_util.Str_contains.contains data p ->
        String.map (fun c -> Char.chr (Char.code c lxor 0x01)) data
      | Some _ | None -> data
    in
    srv.write ~fh ~off ~data
  in
  (bug, { srv with write })

(** [rot srv ~prng ~count] is silent bit rot (bad sectors) in [srv]'s stored
    files, done through [srv]'s own interface, so behind the back of any
    wrapper around it.  It makes [min count files] picks, drawn with
    replacement from the [files] non-empty regular files reachable from the
    root in fileid order, flips one byte of each pick, and returns the
    number of bytes flipped. *)
let rot srv ~prng ~count =
  let rec walk acc dir =
    match srv.readdir ~dir with
    | Error _ -> acc
    | Ok entries ->
      List.fold_left
        (fun acc (_, fh) ->
          match srv.getattr ~fh with
          | Ok { a_ftype = Base_nfs.Nfs_types.Dir; _ } -> walk acc fh
          | Ok { a_ftype = Base_nfs.Nfs_types.Reg; a_size; a_fileid; _ } when a_size > 0 ->
            (a_fileid, fh, a_size) :: acc
          | Ok _ | Error _ -> acc)
        acc entries
  in
  let files =
    walk [] (srv.root ()) |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) |> Array.of_list
  in
  let damaged = ref 0 in
  for _ = 1 to min count (Array.length files) do
    let _, fh, size = Base_util.Prng.pick prng files in
    let off = Base_util.Prng.int prng size in
    match srv.read ~fh ~off ~count:1 with
    | Ok b when String.length b = 1 ->
      let flipped = String.make 1 (Char.chr (Char.code b.[0] lxor 0xff)) in
      if Result.is_ok (srv.write ~fh ~off ~data:flipped) then incr damaged
    | Ok _ | Error _ -> ()
  done;
  !damaged
