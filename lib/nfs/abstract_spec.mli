(** The common abstract specification [S] of the file service (Section 3.1):
    its abstract objects and their canonical encoding.

    The abstract state is a fixed-size array of entries — a generation
    number paired with an object: a file (byte array), a directory
    (lexicographically sorted [name -> oid] sequence), a symbolic link, or
    the null object marking a free entry.  Entry 0 is the root directory.

    This module defines the canonical per-object encoding ({!encode_entry})
    produced by every replica's [get_obj].  The operational semantics of
    [S] — the executable model every conformance wrapper is differentially
    tested against — is a test oracle and lives in test/nfs_model.ml. *)

open Nfs_types

type meta = { mode : int; uid : int; gid : int; mtime : int64; ctime : int64 }

type obj =
  | Null
  | File of { meta : meta; data : string }
  | Directory of { meta : meta; entries : (string * oid) list (** sorted by name *) }
  | Symlink of { meta : meta; target : string }

type entry = { gen : int; obj : obj }

val encode_entry : entry -> string
(** Canonical XDR encoding — the value of one abstract object. *)

val decode_entry : string -> entry

val dir_size : (string * oid) list -> int
(** Deterministic abstract size of a directory. *)
