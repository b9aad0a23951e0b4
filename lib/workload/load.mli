(** Open-loop load generation over a {!Base_core.Runtime} deployment.

    Closed-loop drivers (a fixed set of clients, each issuing its next
    request the instant the previous one completes) cannot measure
    saturation: their offered load collapses to whatever the system
    sustains, hiding queueing delay entirely.  This injector is open-loop —
    arrivals are generated on an engine timer at a configured offered rate,
    independent of completions, in the style of the saturation experiments
    in the PBFT/BASE evaluations.

    Each arrival is handed to a free client from the pool (every client of
    the runtime); when the whole pool is busy the arrival waits in a bounded
    backlog, and its eventual latency {e includes} that wait — the quantity
    that blows up past the saturation point.  Arrivals beyond the backlog
    bound are shed and counted, never silently dropped.

    The injector draws interarrival gaps from its own seeded PRNG, not the
    engine's, so the same offered workload replays identically against
    systems whose network consumes engine randomness differently (different
    batch sizes, drop rates, ...).  It runs as its own pseudo-node (one id
    past the recovery orchestrator), so a run remains a pure function of the
    two seeds. *)

type arrivals =
  | Fixed  (** constant interarrival gap [1/rate] *)
  | Poisson  (** exponential gaps with mean [1/rate] *)

type stats = {
  mutable offered : int;  (** arrivals generated (the open-loop demand) *)
  mutable started : int;  (** arrivals handed to a client so far *)
  mutable completed : int;
  mutable completed_in_window : int;
      (** completions at or before the injection window's end — the
          numerator of {!throughput_per_s} *)
  mutable shed : int;  (** arrivals dropped because the backlog was full *)
  mutable backlog_peak : int;
  latency_us : Base_obs.Metrics.histogram;
      (** arrival to completion, including backlog wait; registered as
          [load.latency_us] in the runtime's registry *)
}

type t

val create :
  ?seed:int64 ->
  ?arrivals:arrivals ->
  ?max_backlog:int ->
  ?operation:(int -> string) ->
  ?read_only:(int -> bool) ->
  rate_per_s:float ->
  duration_us:int ->
  Base_core.Runtime.t ->
  t
(** Arms the injector on the runtime's engine: the first arrival fires at
    the current virtual time and generation continues for [duration_us].
    [operation i] and [read_only i] describe the [i]-th arrival (defaults: a
    write round-robin over 8 registers, never read-only).  [arrivals]
    defaults to [Poisson], [max_backlog] to 100_000.  One injector per
    runtime (it claims the pseudo-node id after the orchestrator). *)

val run : ?max_events:int -> t -> (unit, string) result
(** Step the engine until injection has ended, the backlog has drained and
    every pool client is idle.  An [Error] reports a stall (quiescent queue
    or exhausted budget) instead of raising, so saturation sweeps can treat
    a wedged configuration as data. *)

val stats : t -> stats

val throughput_per_s : t -> float
(** [completed_in_window / duration] — completed requests per second over
    the injection window. *)
