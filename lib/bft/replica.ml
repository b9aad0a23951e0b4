module Digest = Base_crypto.Digest_t
module Auth = Base_crypto.Auth
module M = Message

type app = {
  execute :
    client:int ->
    timestamp:int64 ->
    operation:string ->
    nondet:string ->
    read_only:bool ->
    string;
  propose_nondet : operation:string -> string;
  check_nondet : operation:string -> nondet:string -> bool;
  ready : client:int -> timestamp:int64 -> operation:string -> bool;
  take_checkpoint : seq:Types.seqno -> client_rows:(int * int64 * string) list -> Digest.t;
  discard_checkpoints_below : Types.seqno -> unit;
  start_fetch : seq:Types.seqno -> digest:Digest.t -> unit;
}

let always_ready ~client:_ ~timestamp:_ ~operation:_ = true

type timer = Vc_timeout of Types.view | Status_tick

(* A standby holds replica-side keys and collects checkpoint certificates
   (so the runtime can shadow-sync it and later promote it into a failed
   replica's slot), but it never votes, proposes, executes, or broadcasts —
   it is invisible to the agreement protocol. *)
type role = Active | Standby

type status = Normal | View_changing | Fetching

type stats = {
  mutable executed : int;  (* consensus instances executed *)
  mutable executed_requests : int;  (* client requests executed (>= executed with batching) *)
  mutable checkpoints_taken : int;
  mutable view_changes : int;
  mutable fetches : int;
  mutable rejected_macs : int;
  mutable rejected_decode : int;
  mutable rejected_insane : int;  (* well-formed but protocol-implausible messages *)
  mutable catchup_status : int;  (* STATUS sent at once: fetch end, gap, reboot *)
  mutable vouchers_sent : int;  (* backup: requests vouched for to the primary *)
  mutable vouched_proposals : int;  (* primary: requests taken on f+1 vouchers *)
}

(* Protocol-phase instrumentation: latency histograms over the local
   timeline of each log slot (pre-prepare accepted -> prepared -> committed
   -> executed), plus view-change duration, checkpoint cadence and the
   equivocations a backup detected.  The registry is normally shared by
   every replica of a system, so histograms aggregate across the group.
   What [stats] counts is not copied here: [stats] is its one tally. *)
type obs = {
  m_pre_prepare : Base_obs.Metrics.histogram;
  m_prepare : Base_obs.Metrics.histogram;
  m_commit : Base_obs.Metrics.histogram;
  m_execute : Base_obs.Metrics.histogram;
  m_total : Base_obs.Metrics.histogram;
  m_view_change : Base_obs.Metrics.histogram;
  m_cp_interval : Base_obs.Metrics.histogram;
  c_equivocation : Base_obs.Metrics.counter;
  mutable vc_started : int64;  (* -1 when no view change is in progress *)
  mutable last_cp : int64;  (* timestamp of the previous checkpoint; -1 before the first *)
}

(* [suffix] distinguishes shards sharing one registry (".s1", ".s2", ...);
   shard 0 keeps the historical unsuffixed names. *)
let make_obs ?(suffix = "") metrics =
  let h name = Base_obs.Metrics.histogram metrics (name ^ suffix) in
  {
    m_pre_prepare = h "bft.phase.pre_prepare_us";
    m_prepare = h "bft.phase.prepare_us";
    m_commit = h "bft.phase.commit_us";
    m_execute = h "bft.phase.execute_us";
    m_total = h "bft.phase.total_us";
    m_view_change = h "bft.view_change_us";
    m_cp_interval = h "bft.checkpoint_interval_us";
    c_equivocation = Base_obs.Metrics.counter metrics ("bft.equivocation_detected" ^ suffix);
    vc_started = -1L;
    last_cp = -1L;
  }

(* Per-sequence-number log slot.  The prepare/commit votes are arrays
   indexed by replica id (one slot per active replica, so only replicas can
   vote); certificates are counted over matching digests.  The [t_*] fields
   are local phase timestamps (-1 = milestone not reached). *)
type entry = {
  mutable pre_prepare : M.pre_prepare option;
  mutable pp_env : M.envelope option;  (* [pre_prepare] as this primary sealed it *)
  prepares : Digest.t option array;
  commits : Digest.t option array;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable prepared : M.pre_prepare option;  (* [pre_prepare] once 2f PREPAREs matched it *)
  mutable t_pp : int64;
  mutable t_prepared : int64;
  mutable t_committed : int64;
}

type t = {
  config : Types.config;
  id : int;
  shard : int;  (* agreement instance this replica serves; 0 when unsharded *)
  keychain : Auth.keychain;
  net : timer M.net;
  app : app;
  role : role;
  mutable view : Types.view;
  mutable in_view_change : bool;  (* since a VIEW-CHANGE, until NEW-VIEW or abandonment *)
  entries : (Types.seqno, entry) Hashtbl.t;
  intake : Intake.t;
  cp_msgs : (Types.seqno, Digest.t option array) Hashtbl.t;  (* votes by replica id *)
  own_cps : (Types.seqno, Digest.t) Hashtbl.t;
  mutable h : Types.seqno;  (* low watermark = last stable checkpoint *)
  mutable stable_digest : Digest.t;
  mutable last_exec : Types.seqno;
  mutable next_seq : Types.seqno;  (* primary: last assigned seqno *)
  queued_requests : M.request Queue.t;  (* primary: waiting for window space *)
  early_pps : (Types.seqno, M.pre_prepare) Hashtbl.t;
      (* backup, View_changing: the new primary's PRE-PREPAREs that beat its
         NEW-VIEW, one per slot in the window, replayed at the install *)
  vcs : (Types.view, (int, M.view_change) Hashtbl.t) Hashtbl.t;
  mutable vc_timer : int option;
  mutable vc_timeout_us : int;
  mutable status_timer : int option;
  mutable last_progress_exec : Types.seqno;
  mutable gap_asked : Types.seqno;  (* [last_exec] when a gap last sent STATUS; -1 = never *)
  mutable fetch : (Types.seqno * Digest.t) option;
      (* the checkpoint a state transfer in flight installs; the execution
         gate, independent of [in_view_change] *)
  mutable external_pending : int;
      (* runtime-tracked obligations (cross-shard locks held or awaited) that
         must keep the progress timer armed even with no client pending *)
  mutable in_try_execute : bool;  (* reentrancy guard: see [try_execute] *)
  mutable exec_again : bool;
  peer_views : (int, Types.view) Hashtbl.t;  (* latest STATUS-reported views *)
  mutable primary_heard : int64;
      (* arrival of the last message from its view's primary; -1 = none *)
  mutable last_nv : M.new_view option;
      (* the NEW-VIEW this primary broadcast for its current view, kept for
         retransmission to replicas that were down when the view changed *)
  stats : stats;
  obs : obs;
  prof : Base_obs.Profile.t;
  p_verify : Base_obs.Profile.probe;  (* MAC check on every received envelope *)
  p_seal : Base_obs.Profile.probe;  (* encode + digest + authenticate on send *)
  p_handle : Base_obs.Profile.probe;  (* protocol handling after MAC acceptance *)
  p_exec : Base_obs.Profile.probe;  (* application execute calls *)
}

let fresh_entry n =
  {
    pre_prepare = None;
    pp_env = None;
    prepares = Array.make n None;
    commits = Array.make n None;
    sent_commit = false;
    committed = false;
    prepared = None;
    t_pp = -1L;
    t_prepared = -1L;
    t_committed = -1L;
  }

let now t = t.net.now_us ()

(* The exported mode: a fetch gates execution whether or not a view change
   waits for it to end. *)
let status t =
  match t.fetch with
  | Some _ -> Fetching
  | None -> if t.in_view_change then View_changing else Normal

(* Every primary computation below goes through this: each shard runs its own
   rotation, offset so concurrent shards spread their primaries over distinct
   replicas in any given view. *)
let primary_of t view = Types.shard_primary t.config ~shard:t.shard view

let is_primary t = primary_of t t.view = t.id

(* Record [until - since] in [hist]; skipped when the earlier milestone was
   never seen locally (e.g. the slot arrived pre-committed via new-view). *)
let observe_span hist ~since ~until =
  if Int64.compare since 0L >= 0 && Int64.compare until since >= 0 then
    Base_obs.Metrics.observe hist (Int64.to_float (Int64.sub until since))

(* A fresh slot at [seq], replacing whatever the log held there. *)
let new_entry t seq =
  let e = fresh_entry t.config.n in
  Hashtbl.replace t.entries seq e;
  e

let get_entry t seq =
  match Hashtbl.find_opt t.entries seq with Some e -> e | None -> new_entry t seq

(* The binding of [key] in [tbl], added as [make ()] when absent.  A
   [make] that captures a variable allocates a closure per call, so the
   per-message [get_entry] stays off it. *)
let find_or_add tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl key v;
    v

(* Deterministic traversal of an int-keyed table: snapshot the bindings and
   sort by key.  Every table scan below goes through this, so retransmission
   order and wire-visible new-view summaries are independent of hash-table
   iteration order.  Votes are arrays indexed by replica id and need no
   sort; nothing on the per-request path scans a table. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* --- digests ------------------------------------------------------------ *)

(* The ordering digest binds the whole request batch *and* the agreed
   non-deterministic values, so an equivocating primary cannot get two
   nondet choices (or two batch compositions) past the prepare phase.
   One SHA-256 pass over the injective batch encoding — this runs at the
   primary per proposal and at every backup per PRE-PREPARE acceptance. *)
let ordering_digest requests nondet = Digest.of_string (M.encode_batch requests ~nondet)

let enc_row e (c, ts, res) =
  Base_codec.Xdr.u32 e c;
  Base_codec.Xdr.i64 e ts;
  Base_codec.Xdr.opaque e res

let digest_of_rows rows =
  Digest.of_string (Base_codec.Xdr.encode (fun e rows -> Base_codec.Xdr.list e enc_row rows) rows)

let checkpoint_digest ~app_digest ~client_rows =
  Digest.combine [ app_digest; digest_of_rows client_rows ]

(* Checkpoint the service together with the last-reply table, whose rows
   are built once for both the service's copy and the digest, and record
   the result as this replica's own checkpoint at [seq]. *)
let checkpoint_now t ~seq =
  let client_rows = Intake.rows t.intake in
  let app_digest = t.app.take_checkpoint ~seq ~client_rows in
  let d = checkpoint_digest ~app_digest ~client_rows in
  Hashtbl.replace t.own_cps seq d;
  d

(* --- sending ------------------------------------------------------------ *)

(* Replica-to-replica messages authenticate to receivers [0 .. receivers - 1]:
   the n replicas, or the whole n+s group for checkpoint announcements (see
   [announce_checkpoint]).  Replies carry a single MAC for their client (see
   [send_reply]).  [?resend] is an envelope this replica sealed before:
   [body] is then ignored, and only the MACs are computed afresh. *)
let seal ?resend t ~receivers body =
  Base_obs.Profile.start t.prof t.p_seal;
  let env =
    match resend with
    | Some env -> M.reseal t.keychain ~n_receivers:receivers env
    | None -> M.seal t.keychain ~shard:t.shard ~sender:t.id ~n_receivers:receivers body
  in
  Base_obs.Profile.stop t.prof t.p_seal;
  env

let send_one t ~dst body = t.net.send ~dst (seal t ~receivers:t.config.n body)

let send_all t ~receivers env =
  for r = 0 to receivers - 1 do
    if r <> t.id then t.net.send ~dst:r env
  done

let broadcast_to t ~receivers body = send_all t ~receivers (seal t ~receivers body)

let broadcast t body = broadcast_to t ~receivers:t.config.n body

(* The slot's PRE-PREPARE, sealed for the replicas.  The envelope is kept
   in the entry, and a re-send re-MACs its digest under the current keys
   (proactive recovery may have refreshed them), so it neither re-encodes
   nor re-hashes the batch. *)
let pp_envelope t entry pp =
  let env = seal ?resend:entry.pp_env t ~receivers:t.config.n (M.Pre_prepare pp) in
  entry.pp_env <- Some env;
  env

let broadcast_pre_prepare t entry pp = send_all t ~receivers:t.config.n (pp_envelope t entry pp)

(* Checkpoint announcements go to the whole n+s group, sealed so standbys
   can verify them too: the certificates standbys build from these are
   their only evidence of what the stable abstract state is, so they must
   be first-class MACed messages, not hearsay.  With [s = 0] this is
   exactly [broadcast]. *)
let announce_checkpoint t seq digest =
  broadcast_to t ~receivers:(Types.group_size t.config)
    (M.Checkpoint { seq; digest; replica = t.id })

let send_reply t ~client ~timestamp result =
  let reply = { M.view = t.view; timestamp; client; replica = t.id; result } in
  Base_obs.Profile.start t.prof t.p_seal;
  let env = M.seal_for t.keychain ~shard:t.shard ~sender:t.id ~receiver:client (M.Reply reply) in
  Base_obs.Profile.stop t.prof t.p_seal;
  t.net.send ~dst:client env

(* Tell the group how far this replica got.  A peer ahead of it answers by
   re-sending the slots above [st_last_exec] (see [handle_status]).  The
   status timer sends one every tick; [catch_up] sends one at once when the
   replica knows it is behind: its fetch ended, a slot committed above a
   hole, or it rebooted. *)
let send_status t =
  broadcast t
    (M.Status { st_view = t.view; st_last_exec = t.last_exec; st_h = t.h; st_replica = t.id })

let catch_up t =
  t.stats.catchup_status <- t.stats.catchup_status + 1;
  send_status t

(* --- timers ------------------------------------------------------------- *)

let has_pending t = t.external_pending > 0 || Intake.n_pending t.intake > 0

let cancel_vc_timer t =
  match t.vc_timer with
  | Some id ->
    t.net.cancel_timer id;
    t.vc_timer <- None
  | None -> ()

let arm_vc_timer t =
  t.vc_timer <- Some (t.net.set_timer ~after_us:t.vc_timeout_us (Vc_timeout t.view))

let start_vc_timer t = if t.vc_timer = None && status t = Normal then arm_vc_timer t

(* Progress restarts the progress timer; a view change's escalation timer
   runs on through any slot that executes meanwhile. *)
let restart_vc_timer t =
  if not t.in_view_change then begin
    cancel_vc_timer t;
    if has_pending t then start_vc_timer t
  end

(* --- checkpoints -------------------------------------------------------- *)

let cp_table t seq = find_or_add t.cp_msgs seq (fun () -> Array.make t.config.n None)

let vc_table t view = find_or_add t.vcs view (fun () -> Hashtbl.create 8)

let clear_votes votes = Array.fill votes 0 (Array.length votes) None

let discard_log_below t seq =
  let stale_keys tbl below =
    List.filter_map (fun (s, _) -> if s < below then Some s else None) (sorted_bindings tbl)
  in
  List.iter (Hashtbl.remove t.entries) (stale_keys t.entries (seq + 1));
  List.iter (Hashtbl.remove t.cp_msgs) (stale_keys t.cp_msgs seq);
  List.iter (Hashtbl.remove t.own_cps) (stale_keys t.own_cps seq)

(* Every application execute upcall, ordered or read-only, goes through
   here, under the execute probe. *)
let run t (r : M.request) ~nondet ~read_only =
  Base_obs.Profile.start t.prof t.p_exec;
  let result =
    t.app.execute ~client:r.client ~timestamp:r.timestamp ~operation:r.operation ~nondet
      ~read_only
  in
  Base_obs.Profile.stop t.prof t.p_exec;
  result

(* Move the low watermark up to the stable checkpoint [(seq, digest)]. *)
let advance_watermark t seq digest =
  t.h <- seq;
  t.stable_digest <- digest;
  discard_log_below t seq

let rec make_stable t seq digest =
  if seq > t.h then begin
    advance_watermark t seq digest;
    t.app.discard_checkpoints_below seq;
    if t.next_seq < seq then t.next_seq <- seq;
    (* The primary may now have window space for queued requests. *)
    drain_queue t
  end

and maybe_stable t seq =
  match Hashtbl.find_opt t.own_cps seq with
  | None -> ()
  | Some own ->
    if seq > t.h && Types.count_matching (cp_table t seq) own + 1 >= Types.quorum t.config then
      make_stable t seq own

and take_checkpoint t =
  let seq = t.last_exec in
  let d = checkpoint_now t ~seq in
  t.stats.checkpoints_taken <- t.stats.checkpoints_taken + 1;
  observe_span t.obs.m_cp_interval ~since:t.obs.last_cp ~until:(now t);
  t.obs.last_cp <- now t;
  announce_checkpoint t seq d;
  maybe_stable t seq

(* --- execution ---------------------------------------------------------- *)

(* An entry may only execute when every not-yet-executed request in its batch
   passes the runtime's [ready] gate.  The gate is consulted for internal
   (cross-shard) requests too: the runtime uses the first ready-query on a
   lock request as the lock-acquisition event, so arrival at the gate — not
   execution — is what orders the lock on every replica identically.  The
   whole batch parks together: executing a prefix would split one consensus
   instance across checkpoints. *)
and entry_ready t (pp : M.pre_prepare) =
  List.for_all
    (fun (r : M.request) ->
      r.client = -1
      ||
      Intake.executed t.intake r
      || t.app.ready ~client:r.client ~timestamp:r.timestamp ~operation:r.operation)
    pp.requests

and execute_entry t seq entry (pp : M.pre_prepare) =
  List.iter
    (fun (r : M.request) ->
      (* Null requests (client -1) execute nothing.  Internal
         (runtime-injected) requests, e.g. cross-shard locks, execute through
         the same upcall — the runtime recognises the virtual client id — but
         get no reply and no pending bookkeeping. *)
      (* A request can be ordered twice across view changes; only its first
         ordering executes (exactly-once semantics via the client-table
         timestamp).  An ordered request runs read-write even when flagged
         read-only: a Byzantine primary can order one. *)
      if r.client >= 0 && not (Intake.executed t.intake r) then begin
        t.stats.executed_requests <- t.stats.executed_requests + 1;
        let result = run t r ~nondet:pp.nondet ~read_only:false in
        Intake.record t.intake r result;
        if not (Types.is_internal_client r.client) then
          send_reply t ~client:r.client ~timestamp:r.timestamp result
      end)
    pp.requests;
  t.last_exec <- seq;
  t.stats.executed <- t.stats.executed + 1;
  observe_span t.obs.m_execute ~since:entry.t_committed ~until:(now t);
  observe_span t.obs.m_total ~since:entry.t_pp ~until:(now t);
  restart_vc_timer t;
  drain_queue t;
  if seq mod t.config.checkpoint_period = 0 then take_checkpoint t

and try_execute t =
  (* The ready/execute upcalls can re-enter (releasing a cross-shard lock on
     one replica kicks execution on another replica of the same node, whose
     execute upcall can release back).  A nested call only records that more
     work may be possible; the outermost activation re-checks. *)
  if t.in_try_execute then t.exec_again <- true
  else begin
    t.in_try_execute <- true;
    Fun.protect
      ~finally:(fun () -> t.in_try_execute <- false)
      (fun () ->
        let continue = ref (t.fetch = None) in
        while !continue do
          t.exec_again <- false;
          let seq = t.last_exec + 1 in
          (match Hashtbl.find_opt t.entries seq with
          | Some ({ committed = true; pre_prepare = Some pp; _ } as entry) ->
            if entry_ready t pp then execute_entry t seq entry pp
            else continue := false
          | Some _ | None -> continue := false);
          if (not !continue) && t.exec_again && t.fetch = None then continue := true
        done)
  end

(* --- certificates ------------------------------------------------------- *)

and maybe_committed t seq entry =
  match entry.pre_prepare with
  | Some pp when Option.is_some entry.prepared && not entry.committed ->
    if Types.count_matching entry.commits pp.digest >= Types.quorum t.config then begin
      entry.committed <- true;
      entry.t_committed <- now t;
      observe_span t.obs.m_commit ~since:entry.t_prepared ~until:entry.t_committed;
      try_execute t;
      if seq > t.last_exec + 1 then ask_for_gap t
    end
  | Some _ | None -> ()

(* A slot committed above the next one to execute, which holds no
   PRE-PREPARE: this replica missed it (it was fetching or down), and its
   peers will not re-send it unasked.  Ask once per execution point. *)
and ask_for_gap t =
  if status t = Normal && t.gap_asked <> t.last_exec then
    match Hashtbl.find_opt t.entries (t.last_exec + 1) with
    | Some { pre_prepare = Some _; _ } -> ()
    | Some _ | None ->
      t.gap_asked <- t.last_exec;
      catch_up t

and maybe_prepared t seq entry =
  match entry.pre_prepare with
  | Some pp ->
    (* The primary's own PRE-PREPARE stands in for its prepare. *)
    let primary = primary_of t pp.view in
    let count =
      Types.count_matching entry.prepares pp.digest
      - if Types.voted_for entry.prepares primary pp.digest then 1 else 0
    in
    if count >= 2 * t.config.f && Option.is_none entry.prepared then begin
      entry.prepared <- entry.pre_prepare;
      entry.t_prepared <- now t;
      observe_span t.obs.m_prepare ~since:entry.t_pp ~until:entry.t_prepared;
      if not entry.sent_commit then begin
        entry.sent_commit <- true;
        entry.commits.(t.id) <- Some pp.digest;
        broadcast t (M.Commit { view = pp.view; seq; digest = pp.digest; replica = t.id })
      end;
      maybe_committed t seq entry
    end
    else if Option.is_some entry.prepared then maybe_committed t seq entry
  | None -> ()

(* --- primary proposal --------------------------------------------------- *)

(* Order a batch of requests as one consensus instance. *)
and assign t (batch : M.request list) =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let operation = match batch with r :: _ -> r.M.operation | [] -> "" in
  let nondet = t.app.propose_nondet ~operation in
  let digest = ordering_digest batch nondet in
  let pp = { M.view = t.view; seq; digest; requests = batch; nondet } in
  let entry = get_entry t seq in
  entry.pre_prepare <- Some pp;
  entry.pp_env <- None;
  entry.t_pp <- now t;
  List.iter
    (fun (r : M.request) ->
      (* The span from the request's local arrival to its PRE-PREPARE. *)
      observe_span t.obs.m_pre_prepare ~since:(Intake.assign t.intake r ~seq) ~until:entry.t_pp)
    batch;
  broadcast_pre_prepare t entry pp;
  maybe_prepared t seq entry

and inflight t = t.next_seq - t.last_exec

and window_full t = t.next_seq + 1 > t.h + t.config.log_window

and propose t (r : M.request) =
  if Intake.proposable t.intake r then
    match Hashtbl.find_opt t.entries (Intake.assigned_seq t.intake r) with
    | Some ({ pre_prepare = Some pp; _ } as entry) when pp.view = t.view ->
      (* Assigned in this view already: retransmit so lost copies recover. *)
      broadcast_pre_prepare t entry pp
    | Some _ | None ->
      if window_full t || inflight t >= t.config.max_inflight then
        (* Defer: the request is ordered in a batch as soon as earlier
           instances make progress (this is where batching comes from). *)
        Queue.add r t.queued_requests
      else
        (* Fresh assignment, including when an earlier assignment died with
           its view (it never reached a quorum, or the new-view O set would
           have re-proposed it); exactly-once execution is enforced by the
           client-table timestamp at execution time. *)
        assign t [ r ]

and drain_queue t =
  if is_primary t && status t = Normal then begin
    let continue = ref true in
    while (not (Queue.is_empty t.queued_requests)) && !continue do
      if window_full t || inflight t >= t.config.max_inflight then continue := false
      else begin
        (* Pop up to batch_max still-relevant requests into one instance. *)
        let batch = ref [] in
        let size = ref 0 in
        while !size < t.config.batch_max && not (Queue.is_empty t.queued_requests) do
          let r = Queue.pop t.queued_requests in
          if Intake.claim t.intake r then begin
            batch := r :: !batch;
            incr size
          end
        done;
        match List.rev !batch with [] -> () | batch -> assign t batch
      end
    done
  end

(* A primary back in normal operation, after a view change or a state
   transfer, proposes the client requests it knows are still waiting;
   without this, liveness depends on a client retransmission landing
   inside the view's timeout window. *)
let propose_pending t =
  if is_primary t && status t = Normal then Intake.iter_pending t.intake (propose t)

let in_window t seq = seq > t.h && seq <= t.h + t.config.log_window

(* --- request handling --------------------------------------------------- *)

(* Authenticated but protocol-implausible: counted and dropped. *)
let reject_insane t = t.stats.rejected_insane <- t.stats.rejected_insane + 1

(* A replica's or standby's request as its own client is insane. *)
let handle_request t env (r : M.request) =
  if not (Intake.is_client t.config r.client) then reject_insane t
  else if r.read_only then begin
    let result = run t r ~nondet:"" ~read_only:true in
    send_reply t ~client:r.client ~timestamp:r.timestamp result
  end
  else begin
    match Intake.admit t.intake r ~now:(now t) with
    | Intake.Stale -> ()
    | Intake.Done -> (
      (* Retransmission of an executed request: resend the reply. *)
      match Intake.last_result t.intake r.client with
      | Some result -> send_reply t ~client:r.client ~timestamp:r.timestamp result
      | None -> ())
    | (Intake.First | Intake.Repeat) as arrival ->
      if status t = Normal then begin
        if is_primary t then propose t r
        else begin
          (* The client sends to every replica, so only its retransmission
             says the primary may have missed the request.  Relay the
             client's own envelope, so the primary can check the client's
             MAC, and start the progress timer. *)
          if arrival = Intake.Repeat then t.net.send ~dst:(primary_of t t.view) env;
          start_vc_timer t
        end
      end
  end

(* The primary takes a request it missed once f+1 replicas vouched for the
   identical one ([vouch_missed]): one of them is correct and accepted the
   client's own envelope.  A fetching primary keeps the request pending,
   and [fetch_complete] proposes it. *)
let handle_voucher t sender (r : M.request) =
  if is_primary t && (not r.read_only) && Intake.is_client t.config r.client then
    if Intake.vouch t.intake ~sender r ~now:(now t) then begin
      t.stats.vouched_proposals <- t.stats.vouched_proposals + 1;
      if status t = Normal then propose t r
    end

(* The primary's STATUS shows an empty queue when every slot this backup
   holds a PRE-PREPARE for in the view is executed: by the primary, or by
   the backup while the primary lags by fewer slots than it may have in
   flight before it queues (a primary that rebooted through a commit only
   catches up).  A request the backup holds and saw in no PRE-PREPARE, the
   primary then missed while it was down, if it arrived while the primary
   was silent: a primary that is up answers a request at once, or queues
   it while it sends agreement messages for the slots in flight.  Its
   reboot refreshed its keys, so a relayed client envelope would not
   verify: the backup vouches for the request once, under its own keys. *)
let vouch_missed t (st : M.status_msg) =
  let primary = primary_of t t.view in
  let executed =
    Int.max st.st_last_exec
      (Int.min t.last_exec (st.st_last_exec + t.config.max_inflight - 1))
  in
  if
    Intake.n_pending t.intake > 0 && st.st_replica = primary && st.st_view = t.view && primary <> t.id
    && not t.in_view_change
    && List.for_all
         (fun (seq, e) ->
           match e.pre_prepare with
           | Some pp when pp.view = t.view -> seq <= executed
           | Some _ | None -> true)
         (sorted_bindings t.entries)
  then
    Intake.iter_to_vouch t.intake ~after:t.primary_heard (fun r ->
        t.stats.vouchers_sent <- t.stats.vouchers_sent + 1;
        send_one t ~dst:primary (M.Request r))

(* --- pre-prepare / prepare / commit ------------------------------------- *)

let handle_pre_prepare t sender (pp : M.pre_prepare) =
  let primary = primary_of t pp.view in
  let ours = sender = primary && pp.view = t.view && in_window t pp.seq && t.id <> primary in
  if ours && status t = View_changing then begin
    (* Ahead of the view's NEW-VIEW: [install_new_view] replays it. *)
    if not (Hashtbl.mem t.early_pps pp.seq) then Hashtbl.replace t.early_pps pp.seq pp
  end
  else if ours && status t = Normal then begin
    (* A pre-prepare left over from an earlier view is void in this one: a
       slot the old primary proposed but that never reached a quorum may be
       re-proposed with different contents after the view change (observed
       by replicas that were rebooting through the change).  Supersede it
       with a fresh slot — unless the entry committed, in which case the
       new-view computation guarantees the digests agree anyway. *)
    let entry =
      match get_entry t pp.seq with
      | { pre_prepare = Some old; committed = false; _ } when old.view < pp.view ->
        new_entry t pp.seq
      | entry -> entry
    in
    let acceptable =
      match entry.pre_prepare with
      | Some existing ->
        let same = Digest.equal existing.digest pp.digest in
        (* Same view, same slot, different digest: the primary signed two
           conflicting orderings — direct evidence of equivocation. *)
        if not same then Base_obs.Metrics.incr t.obs.c_equivocation;
        same
      | None ->
        let sane = Intake.batch_sane t.config pp.requests in
        if not sane then reject_insane t;
        sane
        && Digest.equal (ordering_digest pp.requests pp.nondet) pp.digest
        && List.length pp.requests <= t.config.batch_max
        && (match pp.requests with
           | [] -> true
           | r :: _ -> t.app.check_nondet ~operation:r.M.operation ~nondet:pp.nondet)
    in
    if acceptable && entry.pre_prepare = None then begin
      entry.pre_prepare <- Some pp;
      entry.t_pp <- now t;
      List.iter
        (fun (r : M.request) ->
          (* Internal requests take no pending bookkeeping: execution never
             clears it (see [execute_entry]), so a lock request would keep
             the progress timer armed and fire view changes once idle. *)
          if Intake.is_client t.config r.client then
            observe_span t.obs.m_pre_prepare ~since:(Intake.backup_holds t.intake r)
              ~until:entry.t_pp)
        pp.requests;
      start_vc_timer t;
      entry.prepares.(t.id) <- Some pp.digest;
      broadcast t (M.Prepare { view = pp.view; seq = pp.seq; digest = pp.digest; replica = t.id });
      maybe_prepared t pp.seq entry
    end
  end

let handle_prepare t sender (p : M.vote) =
  if
    sender = p.replica && p.view = t.view && status t = Normal && in_window t p.seq
    && sender <> primary_of t p.view
  then begin
    let entry = get_entry t p.seq in
    if Option.is_none entry.prepares.(sender) then begin
      (match entry.pre_prepare with
      | Some accepted
        when accepted.view = p.view && not (Digest.equal accepted.digest p.digest) ->
        (* A peer prepared a different digest for the slot we accepted: it
           must have seen a conflicting pre-prepare from the primary. *)
        Base_obs.Metrics.incr t.obs.c_equivocation
      | Some _ | None -> ());
      entry.prepares.(sender) <- Some p.digest;
      maybe_prepared t p.seq entry
    end
  end

let handle_commit t sender (c : M.vote) =
  if sender = c.replica && c.view <= t.view && in_window t c.seq then begin
    let entry = get_entry t c.seq in
    if Option.is_none entry.commits.(sender) then begin
      entry.commits.(sender) <- Some c.digest;
      maybe_prepared t c.seq entry
    end
  end

(* --- checkpoints and state transfer ------------------------------------- *)

let fetch_target t =
  let weak = Types.weak_quorum t.config in
  List.fold_left
    (fun best (seq, votes) ->
      if seq < t.h then best
      else begin
        (* Find a digest with >= f+1 votes at this seqno. *)
        let certified =
          Array.fold_left
            (fun acc vote ->
              match (acc, vote) with
              | Some _, _ | None, None -> acc
              | None, Some d -> if Types.count_matching votes d >= weak then vote else None)
            None votes
        in
        match (certified, best) with
        | Some d, None -> Some (seq, d)
        | Some d, Some (bs, _) when seq > bs -> Some (seq, d)
        | _ -> best
      end)
    None (sorted_bindings t.cp_msgs)

(* The fetch is over, installed or abandoned.  A view change it
   interrupted (or one that began while it ran) gets its escalation timer
   back until NEW-VIEW or abandonment. *)
let end_fetch t =
  if t.fetch <> None then begin
    t.fetch <- None;
    if t.in_view_change then arm_vc_timer t
  end

(* A repair fetch may target a checkpoint at or below our own execution
   point: the replica rolls back to it and re-executes the committed log
   suffix (deterministically), which restores any corrupt concrete state. *)
let start_fetch_internal ?(allow_repair = false) t (seq, digest) =
  if t.fetch = None && (seq > t.last_exec || (allow_repair && seq >= t.h)) then begin
    t.fetch <- Some (seq, digest);
    t.stats.fetches <- t.stats.fetches + 1;
    cancel_vc_timer t;
    t.app.start_fetch ~seq ~digest
  end

let maybe_fetch_check t ~stalled =
  match fetch_target t with
  | Some (seq, d) when seq > t.last_exec && (seq >= t.h + t.config.log_window || stalled) ->
    (* Transfer when the log can no longer bridge the gap, or when we are
       demonstrably stuck and a certified state exists ahead of us. *)
    start_fetch_internal t (seq, d)
  | Some _ | None -> ()

let handle_checkpoint t sender (c : M.checkpoint) =
  (* Only votes from active replicas count ([receive] drops the rest): a
     checkpoint certificate built from f+1 of them always contains a correct
     replica, which would not hold if clients (or standbys) could stuff the
     table. *)
  if sender = c.replica && c.seq > t.h then begin
    (cp_table t c.seq).(sender) <- Some c.digest;
    if t.role = Active then begin
      maybe_stable t c.seq;
      maybe_fetch_check t ~stalled:false
    end
  end

let initiate_fetch t =
  match fetch_target t with
  | Some target -> start_fetch_internal ~allow_repair:true t target
  | None -> ()

let force_fetch t ~seq ~digest = start_fetch_internal ~allow_repair:true t (seq, digest)

let fetch_complete t ~seq ~app_digest ~client_rows =
  let combined = checkpoint_digest ~app_digest ~client_rows in
  (match t.fetch with
  | Some (target_seq, target_digest) when target_seq = seq ->
    assert (Digest.equal combined target_digest)
  | Some _ | None -> ());
  Intake.merge t.intake client_rows;
  (* Move the execution cursor to the transferred checkpoint.  When it lies
     below our previous position this is a rollback: the committed entries
     still in the log re-execute deterministically on the restored state.
     The cursor must follow the state unconditionally — the transfer
     installed the at-[seq] state, so leaving the cursor anywhere else
     would silently drop every operation between them. *)
  t.last_exec <- seq;
  if seq > t.h then begin
    advance_watermark t seq combined;
    Hashtbl.replace t.own_cps seq combined
  end;
  end_fetch t;
  if t.next_seq < t.h then t.next_seq <- t.h;
  if seq < t.h then
    (* The stable watermark overtook the fetch target while the transfer
       was in flight (checkpoints keep certifying while we are Fetching),
       and the log below the new watermark is gone — re-execution cannot
       bridge the gap.  The replica is now simply behind: fetch again,
       against the freshest certified checkpoint (>= h). *)
    initiate_fetch t;
  try_execute t;
  drain_queue t;
  propose_pending t;
  (* The group may have ordered slots above [seq] while we fetched. *)
  if t.fetch = None then catch_up t

(* --- view changes -------------------------------------------------------- *)

(* PBFT's P: the PRE-PREPAREs that prepared here above the stable
   checkpoint, in seqno order. *)
let prepared_set t =
  Hashtbl.fold
    (fun seq entry acc ->
      if seq > t.h then
        match entry.prepared with Some p -> p :: acc | None -> acc
      else acc)
    t.entries []
  |> List.sort (fun (a : M.pre_prepare) b -> Int.compare a.seq b.seq)

(* What leaving a view change for view [v] resets, whether a NEW-VIEW
   installed it or the replica abandoned its own escalation.  A fetch in
   flight keeps its gate, and ends in normal operation. *)
let leave_view_change t v =
  t.view <- v;
  t.in_view_change <- false;
  Hashtbl.reset t.early_pps;
  t.obs.vc_started <- -1L;
  t.vc_timeout_us <- t.config.viewchange_timeout_us;
  cancel_vc_timer t

let rec do_view_change t v' =
  if v' > t.view || (v' = t.view && status t = Normal) then begin
    t.view <- v';
    t.in_view_change <- true;
    Hashtbl.reset t.early_pps;
    if Int64.compare t.obs.vc_started 0L < 0 then t.obs.vc_started <- now t;
    t.stats.view_changes <- t.stats.view_changes + 1;
    cancel_vc_timer t;
    let vc =
      {
        M.new_view = v';
        last_stable = t.h;
        stable_digest = t.stable_digest;
        prepared = prepared_set t;
        replica = t.id;
      }
    in
    Hashtbl.replace (vc_table t v') t.id vc;
    broadcast t (M.View_change vc);
    (* Escalate with a doubled (but bounded) timeout if this view change
       stalls. *)
    t.vc_timeout_us <- min (t.vc_timeout_us * 2) (20 * t.config.viewchange_timeout_us);
    (* A fetch arms the timer when it ends. *)
    if t.fetch = None then arm_vc_timer t;
    check_new_view t v'
  end

and install_new_view t v' min_s (o : M.pre_prepare list) =
  observe_span t.obs.m_view_change ~since:t.obs.vc_started ~until:(now t);
  let early = sorted_bindings t.early_pps in
  leave_view_change t v';
  (* Certificates from earlier views are void in the new view. *)
  List.iter
    (fun (pp : M.pre_prepare) ->
      let entry = get_entry t pp.seq in
      if not entry.committed then begin
        entry.pre_prepare <- Some pp;
        entry.pp_env <- None;
        entry.t_pp <- now t;
        clear_votes entry.prepares;
        if not entry.sent_commit then clear_votes entry.commits;
        entry.prepared <- None;
        entry.sent_commit <- false;
        if not (is_primary t) then begin
          entry.prepares.(t.id) <- Some pp.digest;
          broadcast t
            (M.Prepare { view = v'; seq = pp.seq; digest = pp.digest; replica = t.id })
        end
      end)
    o;
  if t.next_seq < min_s then t.next_seq <- min_s;
  let max_o = List.fold_left (fun acc (pp : M.pre_prepare) -> max acc pp.seq) min_s o in
  if t.next_seq < max_o then t.next_seq <- max_o;
  if min_s > t.h then begin
    (* We are behind the new-view's stable checkpoint: transfer state. *)
    match fetch_target t with
    | Some target -> start_fetch_internal t target
    | None -> ()
  end;
  List.iter (fun (pp : M.pre_prepare) -> maybe_prepared t pp.seq (get_entry t pp.seq)) o;
  if has_pending t then start_vc_timer t;
  drain_queue t;
  propose_pending t;
  (* Every check of a PRE-PREPARE applies now that the view is installed. *)
  List.iter (fun (_, pp) -> handle_pre_prepare t (primary_of t v') pp) early

and check_new_view t v' =
  if primary_of t v' = t.id && t.in_view_change && t.view = v' then begin
    let tbl = vc_table t v' in
    if Hashtbl.length tbl >= Types.quorum t.config then begin
      let vc_list = List.map snd (sorted_bindings tbl) in
      let min_s, o = View_change.compute_o t.config v' vc_list in
      let summary = List.map (fun vc -> (vc.M.replica, vc.M.last_stable)) vc_list in
      let nv = { M.nv_view = v'; nv_view_changes = summary; nv_pre_prepares = o } in
      t.last_nv <- Some nv;
      broadcast t (M.New_view nv);
      install_new_view t v' min_s o
    end
  end

(* A view-change passes the MAC check on its own authority, so every field
   is still just the sender's claim: it enters the [vcs] table, where
   [View_change] consumes it as fact, only once [vc_sane] found the claims
   plausible. *)
let handle_view_change t sender (vc : M.view_change) =
  if not (View_change.vc_sane t.config vc) then reject_insane t
  else if sender = vc.replica && vc.new_view > 0 then begin
    Hashtbl.replace (vc_table t vc.new_view) sender vc;
    (* Liveness rule: join the smallest view for which f+1 replicas already
       asked for a view change above ours. *)
    if vc.new_view > t.view then
      Option.iter (do_view_change t)
        (View_change.join_target t.config ~view:t.view
           (List.map
              (fun (v, tbl) -> (v, List.map fst (sorted_bindings tbl)))
              (sorted_bindings t.vcs)));
    check_new_view t vc.new_view
  end

let handle_new_view t sender (nv : M.new_view) =
  let v' = nv.nv_view in
  if sender = primary_of t v' && v' >= t.view && sender <> t.id then begin
    let held = List.map snd (sorted_bindings (vc_table t v')) in
    match View_change.new_view_verdict t.config ~held nv with
    | Install min_s -> install_new_view t v' min_s nv.nv_pre_prepares
    | Insane ->
      reject_insane t;
      do_view_change t (v' + 1)
    | Mismatch -> do_view_change t (v' + 1)
  end

(* --- retransmission / progress timer ------------------------------------ *)

(* Send again, through [send], what this replica sent for slot [seq] of the
   current view: its PRE-PREPARE if it leads the view, otherwise its
   PREPARE, plus its COMMIT. *)
let resend_slot t deliver seq entry (pp : M.pre_prepare) =
  let vote = { M.view = pp.view; seq; digest = pp.digest; replica = t.id } in
  let send body = deliver (seal t ~receivers:t.config.n body) in
  if primary_of t pp.view = t.id then deliver (pp_envelope t entry pp)
  else if Option.is_some entry.prepares.(t.id) then send (M.Prepare vote);
  if entry.sent_commit then send (M.Commit vote)

let arm_status_timer t =
  (match t.status_timer with Some id -> t.net.cancel_timer id | None -> ());
  t.status_timer <-
    Some (t.net.set_timer ~after_us:(t.config.viewchange_timeout_us / 2) Status_tick)

let on_status_timer t =
  (* Re-announce the latest own checkpoint so laggards find fetch targets,
     and gossip progress so peers can retransmit what we are missing. *)
  (match Hashtbl.find_opt t.own_cps t.h with
  | Some d when t.h > 0 -> announce_checkpoint t t.h d
  | Some _ | None -> ());
  send_status t;
  let stalled = t.last_exec = t.last_progress_exec in
  if stalled && status t = Normal then begin
    (* Retransmit protocol messages for in-flight slots, in seqno order. *)
    List.iter
      (fun (seq, entry) ->
        if seq > t.last_exec then begin
          match entry.pre_prepare with
          | Some pp when pp.view = t.view ->
            resend_slot t (send_all t ~receivers:t.config.n) seq entry pp
          | Some _ | None -> ()
        end)
      (sorted_bindings t.entries);
    maybe_fetch_check t ~stalled:true
  end;
  t.last_progress_exec <- t.last_exec;
  arm_status_timer t

let start_status_timer t = if t.status_timer = None then arm_status_timer t

(* Called after a reboot: timers that fell due while the node was down
   were dropped, and the others still fire.  Cancel the ones armed before
   it, arm what the replica's state needs, and ask for the slots missed
   meanwhile. *)
let on_reboot t =
  cancel_vc_timer t;
  if status t = View_changing then arm_vc_timer t
  else if has_pending t then start_vc_timer t;
  arm_status_timer t;
  catch_up t

let abort_fetch t =
  end_fetch t;
  Hashtbl.reset t.early_pps

(* Standby bookkeeping after a completed shadow sync: advance the watermark
   to the synced checkpoint and drop certificate tables below it, so the
   certificate store stays bounded however long the standby shadows the
   group.  Called by the runtime's shadow-sync driver only. *)
let standby_note_synced t ~seq ~digest =
  if t.role = Standby && seq > t.h then begin
    advance_watermark t seq digest;
    t.last_exec <- seq
  end

(* A peer announced it is behind us: retransmit, directly to it, the
   protocol messages it needs to make progress — our pre-prepares if we led
   their view of those slots, plus our prepares, commits and checkpoint.
   This is PBFT's status/retransmission mechanism, which gives liveness when
   a replica missed messages while rebooting. *)
let handle_status t sender (st : M.status_msg) =
  if sender = st.st_replica then Hashtbl.replace t.peer_views sender st.st_view;
  (* View abandonment: a replica that escalated views alone (e.g. around a
     proactive recovery) can never gather 2f+1 VIEW-CHANGEs — had f+1 peers
     been with it, the group would have joined.  When a quorum of peers
     reports lower views and we hold no prepared certificate above them,
     rejoin the group's view; nothing could have committed in ours.  A
     fetch in flight keeps its gate. *)
  if sender = st.st_replica && t.in_view_change && st.st_view < t.view then begin
    let peers = List.map snd (sorted_bindings t.peer_views) in
    let prepared = List.filter_map (fun (_, e) -> e.prepared) (sorted_bindings t.entries) in
    match View_change.abandon_target t.config ~view:t.view peers prepared with
    | Some target ->
      leave_view_change t target;
      if has_pending t then start_vc_timer t
    | None -> ()
  end;
  (* A peer stuck in an older view missed the view change while it was down
     (proactive recovery, crash): a replica rejoining the group this way has
     no other path back, because clients have moved on to the new primary and
     only pending client requests escalate views locally.  The primary that
     installed the current view retransmits its NEW-VIEW, which the laggard
     verifies and installs through the normal quorum-trusting path. *)
  if sender = st.st_replica && st.st_view < t.view then begin
    match t.last_nv with
    | Some nv when nv.M.nv_view = t.view && is_primary t ->
      send_one t ~dst:sender (M.New_view nv)
    | Some _ | None -> ()
  end;
  if sender = st.st_replica && st.st_view <= t.view then begin
    (* Checkpoint proof so it can garbage-collect / find fetch targets. *)
    (match Hashtbl.find_opt t.own_cps t.h with
    | Some d when t.h > st.st_h -> send_one t ~dst:sender (M.Checkpoint { seq = t.h; digest = d; replica = t.id })
    | Some _ | None -> ());
    if st.st_view = t.view && st.st_last_exec < t.last_exec then begin
      let upper = min t.last_exec (st.st_h + t.config.log_window) in
      (* A Byzantine STATUS can claim an arbitrarily low [st_last_exec];
         iterating from it would replay (and allocate protocol messages
         for) an attacker-chosen number of slots.  An honest laggard's gap
         within [upper] never exceeds the log window, so cap the replay
         count there and serve the top of the range. *)
      let count = min (upper - st.st_last_exec) t.config.log_window in
      let unreplayable = ref false and send = t.net.send ~dst:sender in
      for off = 1 to count do
        let seq = upper - count + off in
        (match Hashtbl.find_opt t.entries seq with
        | Some ({ pre_prepare = Some pp; _ } as entry) when pp.view = t.view ->
          resend_slot t send seq entry pp
        | Some { pre_prepare = Some pp; committed = true; _ } when pp.view < t.view ->
          (* Committed under an earlier primary: the agreement messages are
             void in this view and will never be re-run. *)
          unreplayable := true
        | Some _ -> ()
        | None -> unreplayable := true)
      done;
      (* The laggard cannot be fed messages for part of its gap; give it a
         state-transfer target instead by checkpointing our current state
         off-schedule (every up-to-date replica does the same on seeing the
         laggard's STATUS, so the checkpoint gets certified). *)
      if !unreplayable && not (Hashtbl.mem t.own_cps t.last_exec) then take_checkpoint t
    end
  end;
  if sender = st.st_replica then vouch_missed t st

(* --- entry points -------------------------------------------------------- *)

(* A timer that fired is gone from the host, so its handle is dropped
   before anything else runs: only a pending timer may be cancelled. *)
let on_timer t = function
  | Vc_timeout view ->
    t.vc_timer <- None;
    if status t = View_changing && t.view = view then do_view_change t (t.view + 1)
    else if status t = Normal && t.view = view && has_pending t then
      do_view_change t (t.view + 1)
  | Status_tick ->
    t.status_timer <- None;
    on_status_timer t

let receive t (env : M.envelope) =
  Base_obs.Profile.start t.prof t.p_verify;
  let authentic = M.verify t.keychain ~receiver:t.id env in
  Base_obs.Profile.stop t.prof t.p_verify;
  if not authentic then t.stats.rejected_macs <- t.stats.rejected_macs + 1
  else if
    env.shard <> t.shard
    || match env.body with
       | M.Request _ | M.Reply _ -> false
       | M.Pre_prepare _ | M.Prepare _ | M.Commit _ | M.Checkpoint _ | M.View_change _
       | M.New_view _ | M.Status _ ->
         not (Types.is_replica t.config env.sender)
  then begin
    (* The MAC binds the shard tag, so a message for a different agreement
       instance is mis-routed, not forged.  It is meaningless here (seqnos
       and views are per-shard namespaces).  Every principal shares a key
       with every replica, so a client's agreement message authenticates
       too; only replicas vote, and a client must not fill a quorum. *)
    reject_insane t
  end
  else begin
    Base_obs.Profile.start t.prof t.p_handle;
    (if t.role = Standby then begin
       (* A standby only ever learns checkpoint certificates; every agreement
          message is noise to it (and processing one could make it broadcast,
          which a non-voting group member must never do). *)
       match env.body with
       | M.Checkpoint c -> handle_checkpoint t env.sender c
       | M.Request _ | M.Pre_prepare _ | M.Prepare _ | M.Commit _ | M.View_change _
       | M.New_view _ | M.Status _ | M.Reply _ -> ()
     end
     else
       match env.body with
       | M.Request r ->
         (* The client's own (possibly relayed) envelope: the MAC was
            checked under the key shared with [env.sender], so a replica
            cannot forge requests on a client's behalf.  A replica's
            envelope is a voucher, which counts once f+1 replicas sent the
            identical request. *)
         if r.client = env.sender then handle_request t env r
         else if Types.is_replica t.config env.sender then handle_voucher t env.sender r
       | M.Pre_prepare pp -> handle_pre_prepare t env.sender pp
       | M.Prepare p -> handle_prepare t env.sender p
       | M.Commit c -> handle_commit t env.sender c
       | M.Checkpoint c -> handle_checkpoint t env.sender c
       | M.View_change vc -> handle_view_change t env.sender vc
       | M.New_view nv -> handle_new_view t env.sender nv
       | M.Status st -> handle_status t env.sender st
       | M.Reply _ -> ());
    if env.sender = primary_of t t.view then t.primary_heard <- now t;
    Base_obs.Profile.stop t.prof t.p_handle
  end

let receive_wire ?(shard = 0) t ~sender ~macs raw =
  match M.of_wire ~shard ~sender ~macs raw with
  | Error _ -> t.stats.rejected_decode <- t.stats.rejected_decode + 1
  | Ok env -> receive t env

let create ?metrics ?(profile = Base_obs.Profile.disabled) ?(role = Active) ?(shard = 0) ~config
    ~id ~keychain ~net ~app () =
  let metrics =
    match metrics with Some m -> m | None -> Base_obs.Metrics.create ()
  in
  let t =
    {
      config;
      id;
      shard;
      keychain;
      net;
      app;
      role;
      view = 0;
      in_view_change = false;
      entries = Hashtbl.create 64;
      intake = Intake.create config;
      cp_msgs = Hashtbl.create 16;
      own_cps = Hashtbl.create 16;
      h = 0;
      stable_digest = Digest.zero;
      last_exec = 0;
      next_seq = 0;
      queued_requests = Queue.create ();
      early_pps = Hashtbl.create 8;
      vcs = Hashtbl.create 8;
      vc_timer = None;
      vc_timeout_us = config.viewchange_timeout_us;
      status_timer = None;
      last_progress_exec = 0;
      gap_asked = -1;
      fetch = None;
      external_pending = 0;
      in_try_execute = false;
      exec_again = false;
      peer_views = Hashtbl.create 8;
      primary_heard = -1L;
      last_nv = None;
      stats =
        {
          executed = 0;
          executed_requests = 0;
          checkpoints_taken = 0;
          view_changes = 0;
          fetches = 0;
          rejected_macs = 0;
          rejected_decode = 0;
          rejected_insane = 0;
          catchup_status = 0;
          vouchers_sent = 0;
          vouched_proposals = 0;
        };
      obs = make_obs ~suffix:(if shard = 0 then "" else Printf.sprintf ".s%d" shard) metrics;
      prof = profile;
      p_verify = Base_obs.Profile.probe profile "bft.verify";
      p_seal = Base_obs.Profile.probe profile "bft.seal";
      p_handle = Base_obs.Profile.probe profile "bft.handle";
      p_exec = Base_obs.Profile.probe profile "bft.execute";
    }
  in
  (* Initial checkpoint at seqno 0 so watermark logic is uniform. *)
  t.stable_digest <- checkpoint_now t ~seq:0;
  t

(* --- cross-shard runtime hooks ------------------------------------------- *)

let submit_internal t (r : M.request) =
  if t.role = Active && status t = Normal && is_primary t then propose t r

let resume_execution t =
  try_execute t;
  drain_queue t

let add_external_pending t =
  t.external_pending <- t.external_pending + 1;
  start_vc_timer t

let clear_external_pending t =
  t.external_pending <- max 0 (t.external_pending - 1);
  restart_vc_timer t

let view t = t.view

let last_executed t = t.last_exec

let low_watermark t = t.h

let stats t = t.stats

let pending_count t = Intake.n_pending t.intake

let early_pre_prepares t = Hashtbl.length t.early_pps

let client_pending t ~client = Intake.pending t.intake ~client
