(** XDR-style external data representation (RFC 1014 subset).

    The paper encodes every entry of the abstract file-service state with XDR
    so that heterogeneous replicas agree on the byte-level value of the
    abstract state.  This module provides the encoder/decoder pair used for
    abstract objects and protocol payloads.

    Conventions follow RFC 1014: all quantities are big-endian and padded to
    4-byte multiples; variable-length data is length-prefixed.

    Both directions are built for the hot path: the encoder writes into a
    growable byte buffer without per-character checks, and a decoder is a
    cursor over a slice of the backing string, so nested records decode
    zero-copy through {!read_view} — only fields the caller
    actually stores are materialised ({!read_opaque}). *)

type encoder

val encoder : unit -> encoder

val reset : encoder -> unit
(** Forget everything encoded so far, keeping the buffer: one encoder can
    serve every message, paying only for each {!contents} copy. *)

val u32 : encoder -> int -> unit
(** Encode an unsigned 32-bit quantity.  Raises [Invalid_argument] if the
    value does not fit. *)

val i64 : encoder -> int64 -> unit

val bool : encoder -> bool -> unit

val opaque : encoder -> string -> unit
(** Variable-length opaque data: u32 length + bytes + padding. *)

val str : encoder -> string -> unit
(** Same wire format as {!opaque}; kept separate for readability. *)

val list : encoder -> (encoder -> 'a -> unit) -> 'a list -> unit
(** u32 count followed by each element. *)

val option : encoder -> (encoder -> 'a -> unit) -> 'a option -> unit

val contents : encoder -> string
(** The bytes encoded so far. *)

(** Decoding raises {!Decode_error} on malformed input — truncation, bad
    discriminants, or trailing garbage (via {!expect_end}). *)

exception Decode_error of string

type decoder

val decoder : ?pos:int -> ?len:int -> string -> decoder
(** A cursor over [data.[pos .. pos+len)] (the whole string by default).
    Raises [Base_util.Invariant.Violation] if the slice is out of bounds —
    slicing is a caller decision, not wire input. *)

val read_u32 : decoder -> int

val read_i64 : decoder -> int64

val read_bool : decoder -> bool

val read_opaque : decoder -> string
(** Materialises an owned copy of the field.  Use {!read_view} when the
    bytes are only inspected, compared or re-decoded. *)

val read_str : decoder -> string

val read_list : decoder -> (decoder -> 'a) -> 'a list

val read_option : decoder -> (decoder -> 'a) -> 'a option

val expect_end : decoder -> unit

val remaining : decoder -> int

(** {1 Zero-copy views}

    A view is the coordinates of an opaque field inside the backing string:
    no bytes move until the caller decides they must. *)

type view = { view_base : string; view_pos : int; view_len : int }

val read_view : decoder -> view
(** Wire-compatible with {!read_opaque}, without the copy. *)

val view_to_string : view -> string

val view_equal_string : view -> string -> bool
(** Bytewise comparison without materialising the view. *)
