(** Metrics registry: counters, gauges and fixed-bucket histograms.

    A registry is a flat namespace of metrics identified by dotted names
    (["net.sent_bytes"], ["bft.phase.prepare_us"]).  Registration is
    get-or-create and idempotent; registering the same name with a
    different kind (or different histogram buckets) raises
    [Invalid_argument].

    Nothing here reads a wall clock: latency observations are produced by
    the caller from {!Base_sim.Sim_time}, which keeps every exported value
    a pure function of the simulation seed — the property that makes the
    benchmark JSON byte-reproducible. *)

type t

type counter

type gauge

type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge

val set_max : gauge -> float -> unit
(** Keep the running maximum (used for the fetcher's peak window occupancy). *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit overflow
    bucket catches everything above the last bound.  Defaults to
    microsecond buckets from 100 us to 5 s, matching the simulated network
    and reboot time scales. *)

val observe : histogram -> float -> unit
(** NaN observations are ignored.  A value lands in the first bucket whose
    upper bound is [>=] the value. *)

val hist_count : histogram -> int

val hist_mean : histogram -> float

val bucket_counts : histogram -> int array
(** Per-bucket counts, length [bounds + 1] (the last slot is overflow). *)

val quantile : histogram -> float -> float
(** Bucket-interpolated quantile estimate; exact at bucket edges. *)

(** {1 Registry} *)

val reset : t -> unit
(** Zero every value but keep all registrations — used when a counter's
    lifetime is one recovery epoch. *)

val names : t -> string list
(** Sorted. *)

val to_json : t -> Json.t
(** Deterministic: metrics sorted by name, histogram buckets in bound
    order. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table (histograms as n/mean/p50/p99/max). *)
