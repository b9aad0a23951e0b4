(** HMAC-SHA256 (RFC 2104), with which {!Auth} derives session keys. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-shape comparison of the expected tag with [tag]. *)
