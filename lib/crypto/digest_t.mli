(** Abstract 32-byte digest values with total order and pretty-printing. *)

type t

val of_string : string -> t
(** [of_string s] hashes [s]. *)

val of_list : string list -> t
(** Digest of the concatenation of the inputs. *)

val of_raw : string -> t
(** Wrap an existing 32-byte digest. Raises [Invalid_argument] on wrong
    length. *)

val raw : t -> string
(** The underlying 32 bytes. *)

val zero : t
(** The all-zeroes digest, used as the placeholder for empty state. *)

val equal : t -> t -> bool

val combine : t list -> t
(** Digest of child digests, for Merkle-tree interior nodes. *)

val pp : Format.formatter -> t -> unit
(** Abbreviated hex form. *)

val to_hex : t -> string
