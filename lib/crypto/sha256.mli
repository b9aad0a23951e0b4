(** SHA-256 (FIPS 180-4), implemented from the specification.

    Used for message digests, Merkle partition trees and as the PRF inside
    {!Hmac}.  Input is processed incrementally, so large abstract objects
    can be hashed without copies: whole 64-byte blocks go to a portable C
    compression kernel straight from the caller's buffer, and only a
    partial block is buffered in the context.

    Hashing allocates nothing but the 32-byte results.  {!digest} and
    {!digest_list} share one context, which relies on the process running
    on a single domain: no two calls to them may overlap from different
    domains.  Contexts made by {!init} are independent of each other. *)

type ctx

val init : unit -> ctx

val update : ctx -> string -> unit

val update_bytes : ctx -> bytes -> pos:int -> len:int -> unit
(** [update_bytes ctx b ~pos ~len] hashes bytes [pos .. pos + len - 1] of
    [b].  Raises [Base_util.Invariant.Violation], leaving [ctx] unchanged,
    if that range is not inside [b]. *)

val update_char : ctx -> char -> unit
(** [update_char ctx c] is [update ctx (String.make 1 c)], without the
    string. *)

val copy_into : src:ctx -> dst:ctx -> unit
(** Overwrite [dst] with the midstate of [src].  Hashing a fixed prefix
    once and copying it per message is what makes precomputed HMAC keys one
    compression per direction instead of two. *)

val finalize : ctx -> string
(** 32-byte binary digest.  The context must not be updated afterwards
    until {!copy_into} overwrites it. *)

val finalize_into : ctx -> bytes -> unit
(** [finalize_into ctx out] writes the digest to the first 32 bytes of
    [out] instead of allocating it; otherwise like {!finalize}.  Raises
    [Base_util.Invariant.Violation] if [out] is shorter than 32 bytes. *)

val digest : string -> string
(** One-shot hash: 32-byte binary digest of the input. *)

val digest_list : string list -> string
(** Hash of the concatenation of the inputs, without materialising it. *)
