(** NFS protocol calls and replies with their XDR wire encodings.

    The encoded call is the opaque operation payload carried by a BFT
    request; the encoded reply is the result returned through the
    replication library.  Clients and conformance wrappers share these
    codecs, so replies from replicas running different implementations are
    byte-identical whenever they are abstractly equal — which is what lets
    the client vote on them. *)

open Nfs_types

type call =
  | Getattr of oid
  | Setattr of oid * sattr
  | Lookup of oid * string
  | Readlink of oid
  | Read of oid * int * int  (** offset, count *)
  | Write of oid * int * string  (** offset, data *)
  | Create of oid * string * sattr
  | Remove of oid * string
  | Rename of oid * string * oid * string  (** src dir, src name, dst dir, dst name *)
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
  | R_readdir of (string * oid) list  (** sorted lexicographically *)
  | R_statfs of { total_slots : int; free_slots : int }

val read_only_call : call -> bool
(** Calls eligible for the replication library's read-only optimisation. *)

val footprint : call -> int list
(** The slot indices the call names statically — the shard-routing
    footprint ({!Base_core.Service.wrapper}'s [oids_of_op]).  [Rename]
    across two directories is the one two-element case; [Statfs] has no
    anchor object and returns [[]]. *)

val encode_call : call -> string

val decode_call : string -> call
(** Raises {!Base_codec.Xdr.Decode_error} on malformed input. *)

val encode_reply : reply -> string

val decode_reply : string -> reply
