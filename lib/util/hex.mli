(** Hexadecimal encoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of [s]. *)

val short : string -> string
(** First 8 hex digits of [encode s]; used to abbreviate digests in traces. *)
