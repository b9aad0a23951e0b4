(** Small descriptive-statistics helpers for the benchmark harness.

    All functions are total: the empty series yields {!empty_summary}
    (count 0, every aggregate 0.0) instead of raising, NaN observations are
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

val empty_summary : summary
(** The summary of the empty series: count 0, all aggregates 0.0. *)

val summarize : float list -> summary
(** Never raises.  NaN elements are ignored; an empty (or all-NaN) series
    returns {!empty_summary}. *)

val summarize_opt : float list -> summary option
(** [None] when the series is empty after NaN filtering — for callers that
    need to distinguish "no data" from "all zeros". *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] clamped to [\[0,1\]]; [sorted] must be
    ascending.  Linear interpolation between ranks; [0.0] on the empty
    array. *)

val pp_summary : Format.formatter -> summary -> unit
