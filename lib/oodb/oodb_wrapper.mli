(** Conformance wrapper for the object database: the "same non-deterministic
    implementation at every replica" configuration from the paper's
    abstract.

    The abstract state mirrors the file service's structure — a fixed array
    of (generation, object) slots with deterministic lowest-free-index
    allocation, canonical sorted encodings, and version stamps taken from
    the agreed non-deterministic values. *)

val make :
  ?max_skew_us:int64 ->
  seed:int64 ->
  now:(unit -> int64) ->
  n_objects:int ->
  unit ->
  Base_core.Service.wrapper
