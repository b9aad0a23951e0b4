(** Source-size metrics for the paper's code-size experiment (E4).

    The paper argues the conformance wrapper plus state-conversion functions
    are small (1105 semicolons, "two orders of magnitude less than the Linux
    2.2 kernel").  This module measures the analogous quantities of this
    repository: statement-terminator counts and non-blank, non-comment lines
    of OCaml source. *)

type counts = {
  files : int;
  lines : int;  (** non-blank, non-comment lines *)
  semicolons : int;  (** [;] occurrences outside comments and string literals *)
}

val zero : counts

val add : counts -> counts -> counts

val count_string : string -> counts
(** Count metrics of one source text (as a single file). *)

val count_dir : ?ext:string list -> string -> counts
(** [count_dir dir] recursively counts all files whose suffix is in [ext]
    (default [[".ml"; ".mli"]]). *)
