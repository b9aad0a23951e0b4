(** Substring search (the stdlib has none). *)

val contains : string -> string -> bool
(** [contains haystack needle] — naive search; [true] for the empty needle. *)
