(** Client-side library for the replicated file service.

    Plays the role of Figure 2's relay + kernel NFS client: turns typed
    calls into encoded operations submitted through an {!invoke} function
    (normally wrapping {!Base_core.Runtime.invoke_sync}) and decodes the
    replies.  Read-only calls are flagged so the replication library can
    use its one-round read-only optimisation. *)

open Nfs_types

type invoke = read_only:bool -> operation:string -> string

type t

val make : invoke -> t

exception Protocol_error of string
(** Raised when a reply cannot be decoded or has the wrong shape — only
    possible if the quorum itself misbehaves beyond the fault assumption. *)

(** Typed convenience wrappers, one per NFS operation. *)

val getattr : t -> oid -> (fattr, err) result

val setattr : t -> oid -> sattr -> (fattr, err) result

val lookup : t -> oid -> string -> (oid * fattr, err) result

val read : t -> oid -> off:int -> count:int -> (string * fattr, err) result

val write : t -> oid -> off:int -> string -> (fattr, err) result

val create : t -> oid -> string -> sattr -> (oid * fattr, err) result

val remove : t -> oid -> string -> (unit, err) result

val symlink : t -> oid -> string -> string -> sattr -> (oid * fattr, err) result

val mkdir : t -> oid -> string -> sattr -> (oid * fattr, err) result

val readdir : t -> oid -> ((string * oid) list, err) result

(** {1 Path-level conveniences} *)

val ok : ('a, err) result -> 'a
(** Unwrap or fail with the NFS error name. *)

val mkdir_p : t -> string -> oid
(** Create all missing directories along the path; returns the last one. *)

val write_file : t -> oid -> string -> chunk:int -> string -> oid
(** Create (or reuse) [name] in the directory and write the contents in
    [chunk]-byte calls; returns the file's oid. *)

val read_file : t -> oid -> chunk:int -> string
(** Read a whole file in [chunk]-byte calls. *)
