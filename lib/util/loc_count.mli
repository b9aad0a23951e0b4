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

val count_path : ?ext:string list -> string -> counts
(** [count_path path] counts the file [path] as one file, or, when [path]
    is a directory, recursively counts all files below it whose suffix is
    in [ext] (default [[".ml"; ".mli"]]).  Raises [Sys_error] when [path]
    does not exist or cannot be read. *)
