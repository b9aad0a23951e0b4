(** Small descriptive-statistics helpers for the benchmark harness.

    All functions are total: the empty series yields count 0 and every
    aggregate 0.0 instead of raising, NaN observations are
    dropped before aggregation, and sorting uses [Float.compare] (a total
    order) rather than polymorphic compare. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation (divides by n, not n-1) *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Never raises.  NaN elements are ignored; an empty (or all-NaN) series
    has count 0 and every aggregate 0.0.  Percentiles interpolate linearly
    between ranks. *)

val pp_summary : Format.formatter -> summary -> unit
