(** Flat array-backed min-heap for the engine's event queue.

    Keys are (event time, insertion sequence) pairs held in parallel
    unboxed [int] arrays, so a push/pop performs no allocation beyond
    occasional capacity doubling and sift comparisons touch no heap
    blocks.  Pop order is exactly sorted (time, seq) — keys are unique —
    so it dequeues identically to a generic binary heap ordered by
    time with its insertion-sequence tie-break (the engine-determinism
    differential suite pins this equivalence against the generic heap it
    replaced, kept in [test/heap.ml]). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:Sim_time.t -> 'a -> unit
(** Raises [Base_util.Invariant.Violation] if [time] is negative or
    exceeds the native-int range (~292,000 simulated years). *)

val min_time : 'a t -> Sim_time.t option
(** Time key of the next event to pop, without popping it. *)

val pop_exn : 'a t -> 'a
(** Remove and return the earliest event's payload; its time key is then
    readable via {!last_time} without allocating an option.  Raises
    [Base_util.Invariant.Violation] when empty. *)

val last_time : 'a t -> Sim_time.t
(** Time key of the most recently popped event (0 before any pop). *)
