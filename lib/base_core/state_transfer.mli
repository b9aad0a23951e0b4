(** Hierarchical state transfer between replicas (Section 2.2).

    A replica that is out of date (because it missed messages that were
    garbage-collected, or because it just went through proactive recovery)
    brings itself to a {e certified} checkpoint [(seq, digest)] — one vouched
    for by f+1 distinct replicas, hence by at least one correct one.

    The fetch is self-verifying from the root down, so each piece can be
    accepted from a single (possibly faulty) replica:

    + [Fetch_head] obtains the partition-tree root and the last-reply table;
      they verify against the certified checkpoint digest.
    + [Fetch_meta] walks down the partition tree, descending only into
      partitions whose digest differs from the local state; every reply
      verifies against the already-certified parent digest.
    + [Fetch_obj] retrieves only the objects that are out of date or
      corrupt, in ranges of at most 4096 bytes; each assembled object
      verifies against its certified leaf digest.

    The fetcher is a {e windowed, load-spread pipeline}: up to
    [window] meta/object requests are in flight at once, striped
    across all peer replicas by a per-source scoreboard (outstanding count,
    reject/timeout strikes, capped quarantine backoff) so recovery time
    scales with the group's aggregate bandwidth, not with round trips to a
    single source.  Before fetching a leaf it consults {!Objrepo.cache_find},
    so values this replica has already seen (old checkpoint values saved by
    copy-on-write, previously fetched objects) install without a round trip.

    When everything needed has arrived, the whole batch is installed with a
    single [put_objs] call — the library's guarantee that the inverse
    abstraction function always sees a consistent abstract state.

    [doc/state_transfer.md] documents the wire protocol, the verification
    argument and the pipeline design with a worked trace. *)

module Digest = Base_crypto.Digest_t

(** Wire messages.  [Fetch_obj] asks for at most [max_bytes] of object
    [index] starting at byte [off]; [Obj_reply] carries the range plus the
    object's [total] length so the fetcher can schedule the remaining
    chunks across other sources. *)
type msg =
  | Fetch_head of { seq : int }
  | Head_reply of {
      seq : int;
      app_root : Digest.t;
      client_rows : (int * int64 * string) list;
    }
  | Fetch_meta of { seq : int; level : int; index : int }
  | Meta_reply of { seq : int; level : int; index : int; children : Digest.t array }
  | Fetch_obj of { seq : int; index : int; off : int; max_bytes : int }
  | Obj_reply of { seq : int; index : int; off : int; total : int; data : string }

val size : msg -> int
(** Wire-size estimate for the simulator. *)

val kind_label : msg -> string
(** Constant constructor tag (["FETCH-OBJ"]), allocation-free; the
    simulator's per-type traffic census keys on this. *)

val label : msg -> string
(** Short human-readable tag (["FETCH-OBJ(n=8,i=3,o=4096)"]) used by
    traces. *)

val combined_digest :
  app_root:Digest.t -> client_rows:(int * int64 * string) list -> Digest.t
(** The checkpoint digest bound by CHECKPOINT messages for a given
    partition-tree root and last-reply table (used by tests and by the
    benchmark harness to fabricate fetch targets). *)

(** {1 Server side} *)

val serve : Objrepo.t -> msg -> msg option
(** Answer a fetch request from the local checkpoint store; [None] if we do
    not hold the requested checkpoint, the requested object range is out of
    bounds, or the message is not a request. *)

(** {1 Fetcher side} *)

(** {2 Re-target policy}

    A fetch cannot finish when its target checkpoint was garbage-collected
    by the group, or when it keeps talking to faulty responders.  The
    fetcher then asks its owner to abandon it and restart against the
    freshest certified checkpoint. *)

val retry_budget : int
(** [8]: the retry round after this many is answered with
    [Retarget "timeout"]. *)

val stall_rounds : int
(** [3]: consecutive retry rounds in which no counter moved before
    [Retarget "stalled"]. *)

val reject_limit : int
(** [12]: verification failures on one fetch before [Retarget
    "rejections"].  Rejections only accumulate for still-pending pieces, so
    a healthy fetch, where a correct reply races every faulty one, stays
    well below this. *)

type verdict =
  | Continue
  | Retarget of string  (** abandon this fetch; the string names the reason *)

(** Per-source scoreboard entry, exposed for observability (the runtime
    exports per-source byte counters from these). *)
type source = {
  src_id : int;  (** replica id of the peer *)
  mutable out : int;  (** requests currently assigned to this source *)
  mutable sent : int;  (** total requests sent to this source *)
  mutable bytes : int;  (** verified payload bytes received from it *)
  mutable strikes : int;  (** rejects/timeouts since the last quarantine
                              (verified replies decay one strike each) *)
  mutable quarantine : int;  (** retry rounds of quarantine remaining; 0 =
                                 eligible for new assignments *)
  mutable quarantines : int;  (** times this source has been quarantined *)
}

(** Cumulative fetch statistics.  Besides its own record, a fetcher adds
    its counts into every record it is handed at {!start}. *)
type stats = {
  mutable meta_fetched : int;
  mutable objects_fetched : int;
  mutable bytes_fetched : int;  (** verified object payload bytes *)
  mutable chunks_fetched : int;
      (** accepted ranged replies for multi-chunk objects (single-reply
          objects do not count) *)
  mutable cache_hits : int;
      (** leaves satisfied from {!Objrepo}'s digest-keyed cache without a
          network fetch *)
  mutable retries : int;  (** {!retry} rounds driven by the runtime timer *)
  mutable quarantines : int;  (** sources quarantined (sum over sources) *)
  mutable heads_rejected : int;
      (** replies whose payload failed digest verification against the
          certified target — the signature of a Byzantine or stale
          responder *)
  mutable meta_rejected : int;
  mutable objects_rejected : int;
}

val fresh_stats : unit -> stats
(** All counters zero. *)

val reset_stats : stats -> unit
(** Zero every counter in place. *)

val compare_obj : int * string -> int * string -> int
(** Order in which fetched objects are handed to [put_objs]: ascending
    object index.  Part of the module's determinism contract (the install
    batch must not depend on hash-table iteration order). *)

val rejected : stats -> int
(** Total verification failures across heads, meta nodes and objects.  A
    fetch accumulating rejections is talking to faulty responders; the
    runtime uses this to re-target instead of retrying blindly. *)

type t

val start :
  ?window:int ->
  ?metrics:Base_obs.Metrics.t ->
  ?trace:(string -> (string * string) list -> unit) ->
  ?into:stats list ->
  repo:Objrepo.t ->
  sources:int list ->
  target_seq:int ->
  target_digest:Digest.t ->
  send:(dst:int -> msg -> unit) ->
  on_complete:
    (seq:int -> app_root:Digest.t -> client_rows:(int * int64 * string) list -> unit) ->
  unit ->
  t
(** Begin fetching.  [sources] are the peer replica ids to stripe requests
    over (must be non-empty; duplicates are dropped).  [send] transmits one
    request to one peer; [on_complete] fires once after the batch has been
    installed in the repo.  [target_digest] is the combined checkpoint
    digest certified by f+1 CHECKPOINT messages.  At most [window]
    (default 8) meta/object requests are in flight.

    Each {!handle_reply} and {!retry} call adds the counts it changed into
    every record of [into] when it returns, after any [on_complete] it
    triggered.  With [metrics], it also counts [base.st.cache_hits],
    [base.st.source_quarantined] and [base.st.source_bytes.<rid>], and
    keeps the peak window occupancy in the [base.st.inflight] gauge.
    [trace] receives named diagnostic events with their attributes:
    [st.quarantine], [st.assembly_rejected], [st.restripe], [st.reject]
    and [st.retry].  Nothing here writes to stderr. *)

val handle_reply : t -> from:int -> msg -> verdict
(** Feed a state-transfer reply to the fetcher (requests are ignored).
    [from] is the replica the reply arrived from: verified payloads credit
    its scoreboard entry, verification failures count a strike against
    it.  [Retarget "rejections"] once the fetch has collected
    {!reject_limit} rejections. *)

val retry : t -> verdict
(** One watchdog round, driven by the owner's timer.  Answers [Retarget]
    past the {!retry_budget} or after {!stall_rounds} rounds without
    progress; otherwise decrements quarantines, re-broadcasts the head
    request if still unanswered, counts a timeout strike against every
    source holding a request older than one full round, re-stripes those
    requests over the other sources and answers [Continue].  [Continue] on
    a finished fetch. *)

val finished : t -> bool

val stats : t -> stats

val inflight : t -> int
(** Meta/object requests currently in flight (always [<= window]). *)

val scoreboard : t -> source array
(** Per-source scoreboard, sorted by replica id.  The array is live: the
    fetcher keeps mutating it. *)
