(** The common abstract specification [S] of the file service (Section 3.1)
    as an executable model.

    The abstract state is a fixed-size array of entries — a generation
    number paired with an object: a file (byte array), a directory
    (lexicographically sorted [name -> oid] sequence), a symbolic link, or
    the null object marking a free entry.  Entry 0 is the root directory;
    oids are assigned deterministically (lowest free index, generation
    incremented).

    This module is simultaneously:
    - the {e specification} every conformance wrapper is differentially
      tested against;
    - the definition of the canonical per-object encoding
      ({!encode_entry}) produced by every replica's [get_obj]; and
    - a directly usable (trivially conformant) reference implementation. *)

open Nfs_types

type meta = { mode : int; uid : int; gid : int; mtime : int64; ctime : int64 }

type obj =
  | Null
  | File of { meta : meta; data : string }
  | Directory of { meta : meta; entries : (string * oid) list (** sorted by name *) }
  | Symlink of { meta : meta; target : string }

type entry = { gen : int; obj : obj }

type t

val create : n_objects:int -> t
(** Fresh state: root directory at index 0, everything else free. *)

val n_objects : t -> int

val slot : t -> int -> entry

val oid_at : t -> int -> oid
(** The oid currently denoting slot [i]. *)

val encode_entry : entry -> string
(** Canonical XDR encoding — the value of one abstract object. *)

val decode_entry : string -> entry

val dir_size : (string * oid) list -> int
(** Deterministic abstract size of a directory. *)

val execute : ?modify:(int -> unit) -> t -> ts:int64 -> Nfs_proto.call -> Nfs_proto.reply
(** Apply one operation with the agreed timestamp [ts].  [modify] is called
    with the index of every slot about to change, before it changes — the
    same contract as the BASE [modify] upcall. *)
