(** HMAC-SHA256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-shape comparison of the expected tag with [tag]. *)

type prepared
(** A key with its ipad/opad blocks pre-compressed: one SHA-256 block per
    direction paid at {!prepare} instead of on every MAC. *)

val prepare : key:string -> prepared

val mac_prepared : ?suffix:char -> prepared -> string -> string
(** Same tag as [mac ~key msg] for the key given to {!prepare} — the batch
    authenticator equivalence suite pins this.  With [~suffix:c] the tag
    covers [msg ^ String.make 1 c], without building that string.
    Allocates only the returned tag (single-domain scratch, see
    {!Sha256}). *)

val verify_prepared : ?suffix:char -> prepared -> string -> tag:string -> bool
(** Constant-shape comparison, like {!verify}; allocates nothing. *)
