(** HMAC-SHA256 (RFC 2104), with which {!Auth} derives session keys. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)
