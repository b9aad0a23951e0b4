(** The per-node records of the BASE runtime, declared once.

    A {!replica_node} is one replica cell: the agreement instance a node
    runs for one shard, with its implementation, its abstract-object repo,
    its in-flight fetch and its fetch tally.  {!msg} is what the nodes send
    each other.  {!Runtime} builds the cells and re-exports these
    declarations; {!Xshard} and {!Recovery} take the cells themselves and
    read their fields directly. *)

(** A network message. *)
type msg =
  | Bft of Base_bft.Message.envelope
  | St of { from : int; shard : int; body : State_transfer.msg }
      (** [shard] routes the transfer to the per-shard replica cell that
          owns the checkpoint being fetched; always [0] when unsharded *)
  | Raw of { from : int; shard : int; macs : string array; bytes : string }
      (** a protocol message corrupted in flight, delivered as wire bytes;
          replicas feed it to {!Base_bft.Replica.receive_wire}, which counts
          and rejects it *)

(** Wire-size estimate, for building a custom engine config. *)
let msg_size = function
  | Bft env -> env.Base_bft.Message.size
  | St { body; shard; _ } -> State_transfer.size body + Base_bft.Message.shard_overhead shard
  | Raw { bytes; macs; shard; _ } ->
    Array.fold_left (fun acc m -> acc + String.length m) (String.length bytes) macs
    + Base_bft.Message.shard_overhead shard

let msg_label = function
  | Bft env -> Base_bft.Message.label env.Base_bft.Message.body
  | St { body; _ } -> State_transfer.label body
  | Raw _ -> "RAW"

(** Constant per-constructor tag ("PRE-PREPARE", "FETCH-OBJ", "RAW"): the
    allocation-free accounting key, which the engine reads once per send
    and per delivery.  Custom engine configs should set [Engine.kind_of] to
    this — the default derives the kind by formatting the full label on
    every send. *)
let msg_kind = function
  | Bft env -> Base_bft.Message.kind_label env.Base_bft.Message.body
  | St { body; _ } -> State_transfer.kind_label body
  | Raw _ -> "RAW"

(** Recovery counters of one replica cell. *)
type recovery_stats = {
  mutable recoveries : int;
  fetched : State_transfer.stats;
      (** the cell's fetch tally: every fetcher the cell runs counts into
          it, over the whole run *)
}

(** One proactive-recovery episode: either reboot-in-place then
    differential fetch, or ([tl_migrated]) a standby promotion then a
    catch-up fetch.  Timestamps are simulation time; [-1L] means the
    milestone was not reached (run ended mid-episode).  Consume durations
    through {!timeline_window_us} / {!timeline_handoff_us} — they are total
    over the sentinels — rather than subtracting raw fields. *)
type recovery_timeline = {
  tl_rid : int;
  tl_migrated : bool;
  tl_start_us : int64;
  mutable tl_reboot_done_us : int64;  (** in-place episodes *)
  mutable tl_promote_done_us : int64;  (** migration episodes *)
  mutable tl_staleness_seqs : int;
      (** migration: certified checkpoint head minus the promoted standby's
          synced seqno at promotion time ([-1] until promotion completes) *)
  mutable tl_staleness_us : int64;
      (** migration: promotion time minus the standby's last completed
          shadow sync *)
  mutable tl_fetch_done_us : int64;
      (** also set, equal to the handoff milestone, when there was nothing
          to fetch *)
  mutable tl_objects : int;
  mutable tl_bytes : int;
}

(* The episode's durations, total over the [-1L] sentinels: [None]
   whenever the start or the later milestone was never reached.
   [timeline_window_us] is the window of vulnerability, start to
   fetch-done; [timeline_handoff_us] runs from the start to the role-switch
   milestone, reboot-done for in-place episodes and promote-done for
   migrations. *)
let timeline_window_us, timeline_handoff_us =
  let since_start tl until =
    if Int64.compare tl.tl_start_us 0L >= 0 && Int64.compare until tl.tl_start_us >= 0 then
      Some (Int64.to_int (Int64.sub until tl.tl_start_us))
    else None
  in
  ( (fun tl -> since_start tl tl.tl_fetch_done_us),
    fun tl ->
      since_start tl (if tl.tl_migrated then tl.tl_promote_done_us else tl.tl_reboot_done_us) )

(** Shadow-sync state of one warm standby. *)
type standby_sync = {
  mutable ss_synced_seq : int;
      (** seqno of the last fully shadow-synced checkpoint; [-1] before the
          first sync completes (and again right after the machine is wiped
          on demotion) *)
  mutable ss_synced_at_us : int64;
  mutable ss_root : Base_crypto.Digest_t.t;  (** abstract-state root at [ss_synced_seq] *)
  mutable ss_client_rows : (int * int64 * string) list;
  mutable ss_promotions : int;  (** times this pool slot was promoted *)
}

(** One replica cell.  The cell owns its {!recovery_stats} and, on a warm
    standby, its {!standby_sync}. *)
type replica_node = {
  rid : int;
  shard : int;
      (** the agreement instance this cell serves; a physical node hosts one
          cell per shard, all sharing its node id on the network *)
  replica : Base_bft.Replica.t;
  mutable repo : Objrepo.t;
  mutable wrapper : Service.wrapper;
      (** [repo]/[wrapper] are mutable because promotion swaps them between
          the slot node and the standby node: the standby machine's warm
          state takes over the slot identity, the demoted machine keeps the
          suspect state under the standby identity.  All service upcalls
          read them through the node record, so the swap takes effect
          atomically for certificate handling, execution and fetch serving
          alike. *)
  standby : standby_sync option;  (** [Some] iff this node is a warm standby *)
  mutable fetcher : State_transfer.t option;
  mutable divergences : int;
      (** inverse divergences since the cell's last clean install: the
          exponent of its re-fetch back-off *)
  recovery_stats : recovery_stats;
}
