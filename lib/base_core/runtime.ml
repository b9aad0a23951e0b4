module Digest = Base_crypto.Digest_t
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Faultplan = Base_sim.Faultplan
module Types = Base_bft.Types
module Message = Base_bft.Message
module Replica = Base_bft.Replica
module Client = Base_bft.Client
module Auth = Base_crypto.Auth

type msg =
  | Bft of Message.envelope
  | St of { from : int; shard : int; body : State_transfer.msg }
  | Raw of { from : int; shard : int; macs : string array; bytes : string }

exception Stalled of string

(* Broken internal wiring (a node record referenced before construction
   finishes).  Unreachable by design and never message-triggered; kept as a
   dedicated exception so Byzantine-facing paths stay free of [assert]. *)
exception Internal_error of string

include Recovery.Records

type replica_node = {
  rid : int;
  shard : int;  (* the agreement instance this cell serves; 0 when unsharded *)
  replica : Replica.t;
  mutable repo : Objrepo.t;
  mutable wrapper : Service.wrapper;
      (* [repo]/[wrapper] are mutable because promotion swaps them between
         the slot node and the standby node: the standby machine's warm
         state takes over the slot identity, the demoted machine keeps the
         suspect state under the standby identity.  All service upcalls read
         them through the node record, so the swap takes effect atomically
         for certificate handling, execution and fetch serving alike. *)
  standby : standby_sync option;  (* [Some] iff this node is a warm standby *)
  mutable fetcher : State_transfer.t option;
  recovery_stats : recovery_stats;
}

(* An active Byzantine-primary attack window: while [atk_until] is in the
   future, pre-prepares sent by [atk_node] are muted with probability
   [atk_mute_p] and the surviving ones delayed by [atk_delay_us]. *)
type pp_attack = {
  atk_node : int;
  atk_shard : int option;  (* [None] attacks the node's pre-prepares in every shard *)
  atk_mute_p : float;
  atk_delay_us : int;
  atk_until : int64;
}

type t = {
  engine : msg Engine.t;
  config : Types.config;
  replicas : replica_node array;
  cells : replica_node array array;
      (* [cells.(shard).(rid)]: every node hosts one replica cell per shard
         of the object space; [cells.(0) == replicas].  Unsharded systems
         have exactly one row. *)
  standbys : replica_node array;  (* warm pool, node ids n .. n+s-1 *)
  clients : Client.t array;
  orchestrator : int;  (* pseudo-node owning the recovery watchdog and fault timers *)
  xshard : msg Xshard.t;
  recovery : msg Recovery.t;
  metrics : Base_obs.Metrics.t;
  profile : Base_obs.Profile.t;
  trace : Base_obs.Trace.t;
  (* System-wide state-transfer totals, added into by every fetcher, so
     they survive the fetchers (which are discarded on completion). *)
  st_totals : State_transfer.stats;
  mutable roll_cursor : int;  (* next slot a faultplan [promote] fills *)
  mutable pp_attack : pp_attack option;
}

let msg_size = function
  | Bft env -> env.Message.size
  | St { body; shard; _ } -> State_transfer.size body + Message.shard_overhead shard
  | Raw { bytes; macs; shard; _ } ->
    Array.fold_left (fun acc m -> acc + String.length m) (String.length bytes) macs
    + Message.shard_overhead shard

let msg_label = function
  | Bft env -> Message.label env.Message.body
  | St { body; _ } -> State_transfer.label body
  | Raw _ -> "RAW"

(* Allocation-free accounting key: the engine calls this once per send and
   per delivery, so it must not format anything. *)
let msg_kind = function
  | Bft env -> Message.kind_label env.Message.body
  | St { body; _ } -> State_transfer.kind_label body
  | Raw _ -> "RAW"

let engine t = t.engine

let config t = t.config

let replica t i = t.replicas.(i)

let replicas t = t.replicas

let standby t i = t.standbys.(i - t.config.Types.n)

let client t i = t.clients.(i)

let now t = Engine.now t.engine

let metrics t = t.metrics

let trace t = t.trace

let st_totals t = t.st_totals

let recovery_timelines t = Recovery.timelines t.recovery

let trace_event t name attrs = Base_obs.Trace.event t.trace ~ts:(now t) ~name attrs

(* --- state-transfer plumbing --------------------------------------------- *)

let st_send t ~src ~dst ~shard body =
  Engine.send t.engine ~src ~dst (St { from = src; shard; body })

(* Abandon the current fetch and restart against the freshest certified
   checkpoint — the escape hatch for a garbage-collected target, a target
   digest we can no longer verify anything against, or an inverse
   abstraction that failed to reproduce the certified state.  A standby has
   no protocol status to repair and no urgency: dropping the fetcher is
   enough, the next shadow-sync tick re-targets on its own. *)
let retarget_fetch t node ~reason =
  node.fetcher <- None;
  trace_event t "st.retarget" [ ("reason", reason); ("rid", string_of_int node.rid) ];
  if not (Types.is_standby t.config node.rid) then begin
    Replica.abort_fetch node.replica;
    Replica.initiate_fetch node.replica
  end

(* Retry/stall-poll cadence for an active fetch.  Under load the group
   certifies a fresh checkpoint every few tens of milliseconds, so a fetch
   that loses the race with garbage collection must notice and re-target on
   that timescale: a coarse retry period quantizes every unlucky fetch —
   and hence the recovery window — up to multiples of itself.  The tick
   captures the cell record, and reads its fetcher when it fires. *)
let rec arm_retry t node =
  ignore
    (Engine.set_timer t.engine ~node:node.rid ~after:(Sim_time.of_us 50_000) (fun () ->
         st_retry_tick t node))

and st_retry_tick t node =
  match node.fetcher with
  | Some fetcher when not (State_transfer.finished fetcher) -> (
    match State_transfer.retry fetcher with
    | State_transfer.Continue -> arm_retry t node
    | State_transfer.Retarget reason -> retarget_fetch t node ~reason)
  | Some _ | None -> ()

(* Common fetcher construction for both the recovery path and the standby
   shadow sync; only the continuation after a verified install differs.
   Sources are always the active replicas (standbys are never
   authoritative). *)
let launch_fetch t node ~seq ~digest ~on_installed =
  let fetcher =
    State_transfer.start ~window:t.config.Types.st_window ~metrics:t.metrics
      ~trace:(fun name attrs -> trace_event t name (("rid", string_of_int node.rid) :: attrs))
      ~into:[ node.recovery_stats.episode; node.recovery_stats.fetched; t.st_totals ]
      ~repo:node.repo
      ~sources:(List.filter (fun r -> r <> node.rid) (Types.replica_ids t.config))
      ~target_seq:seq ~target_digest:digest
      ~send:(fun ~dst body -> st_send t ~src:node.rid ~dst ~shard:node.shard body)
      ~on_complete:(fun ~seq ~app_root ~client_rows ->
        node.fetcher <- None;
        (* Register the transferred checkpoint so this node can serve it. *)
        let root = Objrepo.take_checkpoint node.repo ~seq ~client_rows in
        if Digest.equal root app_root then on_installed ~seq ~app_root ~client_rows
        else begin
          (* The inverse abstraction produced a state whose digest does not
             match the certified checkpoint: the local implementation is
             faulty in a way reinstallation did not mask.  Degrade
             gracefully — count it and re-run the transfer (a standby
             leaves that to its next shadow-sync tick) — instead of
             crashing the replica, which would turn one faulty node into a
             liveness hit for the group. *)
          Base_obs.Metrics.incr (Base_obs.Metrics.counter t.metrics "st.inverse_divergence");
          if not (Types.is_standby t.config node.rid) then
            retarget_fetch t node ~reason:"inverse-divergence"
        end)
      ()
  in
  node.fetcher <- Some fetcher;
  arm_retry t node

(* The {!Replica.app.start_fetch} upcall: recover the cell to a certified
   checkpoint, then resume the protocol. *)
let start_fetch t node ~seq ~digest =
  launch_fetch t node ~seq ~digest ~on_installed:(fun ~seq ~app_root ~client_rows ->
      Recovery.fetch_done t.recovery node.rid;
      Replica.fetch_complete node.replica ~seq ~app_digest:app_root ~client_rows)

let handle_st t node ~from body =
  match body with
  | State_transfer.Fetch_head _ | State_transfer.Fetch_meta _ | State_transfer.Fetch_obj _ -> (
    match State_transfer.serve node.repo body with
    | Some reply -> st_send t ~src:node.rid ~dst:from ~shard:node.shard reply
    | None -> ())
  | State_transfer.Head_reply _ | State_transfer.Meta_reply _ | State_transfer.Obj_reply _ -> (
    match node.fetcher with
    | Some fetcher -> (
      match State_transfer.handle_reply fetcher ~from body with
      | State_transfer.Continue -> ()
      | State_transfer.Retarget reason -> retarget_fetch t node ~reason)
    | None -> ())

(* --- chaos: fault-plan execution and the Byzantine-primary adversary ------- *)

let replica_behavior = function
  | Faultplan.B_honest -> Replica.Honest
  | Faultplan.B_mute -> Replica.Mute
  | Faultplan.B_lie -> Replica.Lie_in_replies
  | Faultplan.B_equivocate -> Replica.Equivocate

let set_behavior ?shard t rid b =
  match shard with
  | Some s -> Replica.set_behavior t.cells.(s).(rid).replica b
  | None -> Array.iter (fun row -> Replica.set_behavior row.(rid).replica b) t.cells

let link_attr src dst =
  let e v = if v = -1 then "*" else string_of_int v in
  Printf.sprintf "%s->%s" (e src) (e dst)

let exec_fault t (ev : Faultplan.event) =
  let until for_us = Sim_time.add (Engine.now t.engine) (Sim_time.of_us for_us) in
  match ev.Faultplan.action with
  | Faultplan.Crash n ->
    Engine.set_node_up t.engine n false;
    trace_event t "fault.crash" [ ("rid", string_of_int n) ]
  | Faultplan.Reboot n ->
    Engine.set_node_up t.engine n true;
    (* A rebooted replica lost its pending timers with the crash; re-arm —
       every per-shard cell the node hosts, plus the cross-shard kick. *)
    if n < t.config.Types.n then begin
      Array.iter
        (fun row ->
          let node = row.(n) in
          Replica.on_reboot node.replica;
          (* The st_retry chain is a runtime-level timer, so it died with
             the crash too.  A fetch that was in flight would otherwise sit
             wedged forever (status Fetching, no retries, no retarget) —
             restart it against the freshest certified checkpoint. *)
          match node.fetcher with
          | Some fetcher when not (State_transfer.finished fetcher) ->
            retarget_fetch t node ~reason:"reboot"
          | Some _ | None -> ())
        t.cells;
      Xshard.rebooted t.xshard n
    end
    else if Types.is_standby t.config n then Recovery.standby_rebooted t.recovery n;
    trace_event t "fault.reboot" [ ("rid", string_of_int n) ]
  | Faultplan.Promote sbid ->
    if Types.is_standby t.config sbid then begin
      (* Faultplan promotions roll through the replica slots in order, like
         the migrating watchdog would; the verb exists to stage promotion
         races (promote just after crash-standby) deterministically. *)
      let slot = t.roll_cursor mod t.config.Types.n in
      t.roll_cursor <- t.roll_cursor + 1;
      trace_event t "fault.promote" [ ("sb", string_of_int sbid); ("slot", string_of_int slot) ];
      Recovery.promote t.recovery ~slot ~standby:sbid
    end
  | Faultplan.Crash_standby sbid ->
    if Types.is_standby t.config sbid then begin
      Engine.set_node_up t.engine sbid false;
      trace_event t "fault.crash_standby" [ ("sb", string_of_int sbid) ]
    end
  | Faultplan.Partition (a, b) ->
    Engine.partition t.engine a b;
    trace_event t "fault.partition"
      [
        ("a", String.concat "," (List.map string_of_int a));
        ("b", String.concat "," (List.map string_of_int b));
      ]
  | Faultplan.Heal ->
    Engine.heal t.engine;
    trace_event t "fault.heal" []
  | Faultplan.Delay_link { src; dst; extra_us; for_us } ->
    Engine.fault_delay t.engine ~src ~dst ~extra_us ~until:(until for_us);
    trace_event t "fault.delay"
      [ ("extra_us", string_of_int extra_us); ("link", link_attr src dst) ]
  | Faultplan.Drop_link { src; dst; p; for_us } ->
    Engine.fault_drop t.engine ~src ~dst ~p ~until:(until for_us);
    trace_event t "fault.drop" [ ("link", link_attr src dst); ("p", Printf.sprintf "%g" p) ]
  | Faultplan.Corrupt_link { src; dst; p; for_us } ->
    Engine.fault_corrupt t.engine ~src ~dst ~p ~until:(until for_us);
    trace_event t "fault.corrupt"
      [ ("link", link_attr src dst); ("p", Printf.sprintf "%g" p) ]
  | Faultplan.Set_behavior { node; behavior; shard } ->
    (match shard with
    | Some s when s < 0 || s >= Array.length t.cells -> ()
    | Some _ | None -> set_behavior ?shard t node (replica_behavior behavior));
    trace_event t "fault.behavior"
      ([ ("behavior", Faultplan.behavior_name behavior); ("rid", string_of_int node) ]
      @ match shard with Some s -> [ ("shard", string_of_int s) ] | None -> [])
  | Faultplan.Attack_pre_prepare { node; mute_p; delay_us; for_us; shard } ->
    t.pp_attack <-
      Some
        {
          atk_node = node;
          atk_shard = shard;
          atk_mute_p = mute_p;
          atk_delay_us = delay_us;
          atk_until = until for_us;
        };
    trace_event t "fault.attack_preprepare"
      ([
         ("delay_us", string_of_int delay_us);
         ("mute", Printf.sprintf "%g" mute_p);
         ("rid", string_of_int node);
       ]
      @ match shard with Some s -> [ ("shard", string_of_int s) ] | None -> [])

let apply_faultplan t plan =
  List.iter
    (fun (ev : Faultplan.event) ->
      ignore
        (Engine.set_timer t.engine ~node:t.orchestrator
           ~after:(Sim_time.of_us ev.Faultplan.at_us) (fun () -> exec_fault t ev)))
    plan

(* The adversary's view of one outgoing replica message: [None] means the
   attacked primary mutes it, [Some extra_us] lets it through with that much
   added delay.  Muting draws per destination, so a broadcast can reach an
   arbitrary subset of the backups — omission-style equivocation. *)
let pp_attack_extra t rid (env : Message.envelope) =
  match t.pp_attack with
  | Some atk
    when atk.atk_node = rid
         && Sim_time.compare (Engine.now t.engine) atk.atk_until < 0
         && (match atk.atk_shard with
            | Some s -> env.Message.shard = s
            | None -> true)
         && (match env.Message.body with Message.Pre_prepare _ -> true | _ -> false) ->
    if
      atk.atk_mute_p > 0.0
      && Base_util.Prng.bernoulli (Engine.prng t.engine) atk.atk_mute_p
    then begin
      Base_obs.Metrics.incr (Base_obs.Metrics.counter t.metrics "adversary.pp_muted");
      None
    end
    else begin
      if atk.atk_delay_us > 0 then
        Base_obs.Metrics.incr (Base_obs.Metrics.counter t.metrics "adversary.pp_delayed");
      Some atk.atk_delay_us
    end
  | _ -> Some 0

(* --- proactive recovery ------------------------------------------------------ *)

let enable_proactive_recovery ?reboot_us ?promote_us ?migrate ~period_us t =
  Recovery.enable ?reboot_us ?promote_us ?migrate ~period_us t.recovery

let disable_proactive_recovery t = Recovery.disable t.recovery

let recover_now ?reboot_us t rid = Recovery.recover_now ?reboot_us t.recovery rid

let promote_now ?promote_us t rid = Recovery.promote_now ?promote_us t.recovery rid

(* --- construction ---------------------------------------------------------- *)

(* Partition-tree fan-out of every replica's object repository. *)
let branching = 16

let create ?engine_config ?profile ~config ~make_wrapper ~n_clients () =
  let engine_config =
    match engine_config with
    | Some c -> c
    | None ->
      {
        (Engine.default_config ~size_of:msg_size ~label_of:msg_label) with
        Engine.kind_of = msg_kind;
      }
  in
  let engine = Engine.create engine_config in
  (* One profile for the whole system: probes aggregate across replicas,
     clients and the engine (same sharing model as [metrics]).  Disabled —
     and a couple of loads plus a branch per probe site — until the caller
     enables it. *)
  let profile =
    match profile with Some p -> p | None -> Base_obs.Profile.create ()
  in
  Engine.attach_profile engine profile;
  (* One registry for the whole system: replica histograms aggregate across
     the group, which is what the benchmark tables report.  The engine
     exports its live queue-depth / per-node inflight gauges into the same
     registry. *)
  let metrics = Base_obs.Metrics.create () in
  Engine.attach_metrics engine metrics;
  (* In-flight corruption model: flip one byte of the encoded protocol body
     and deliver it as raw wire bytes, so it exercises the replica's
     decode-and-MAC rejection path exactly like a Byzantine network would.
     State-transfer messages (simulator values, no wire codec) are mangled
     beyond recognition instead: the corruptor declines and the engine drops
     them. *)
  Engine.set_corruptor engine (fun rng msg ->
      match msg with
      | Bft env ->
        let body = env.Message.wire in
        let len = String.length body in
        if len = 0 then None
        else begin
          let bytes = Bytes.of_string body in
          let i = Base_util.Prng.int rng len in
          let flip = 1 + Base_util.Prng.int rng 255 in
          Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor flip));
          Some
            (Raw
               {
                 from = env.Message.sender;
                 shard = env.Message.shard;
                 macs = env.Message.macs;
                 bytes = Bytes.to_string bytes;
               })
        end
      | St _ | Raw _ -> None);
  let trace = Base_obs.Trace.create () in
  let chains =
    Auth.create ~seed:(Int64.add engine_config.Engine.seed 7919L)
      ~n_principals:config.Types.n_principals
  in
  let n = config.Types.n in
  let n_shards = Types.n_shards config in
  let group = Types.group_size config in
  let orchestrator = config.Types.n_principals in
  (* [replica_cells.(shard).(rid)]: every cell once built — actives in all
     rows, standbys in row 0. *)
  let replica_cells = Array.make_matrix n_shards group None in
  let cell ~shard rid =
    match replica_cells.(shard).(rid) with
    | Some node -> node
    | None -> raise (Internal_error "Runtime: replica node referenced before construction")
  in
  let t_cell = ref None in
  let the () =
    match !t_cell with
    | Some t -> t
    | None -> raise (Internal_error "Runtime: node callback ran before wiring finished")
  in
  let xshard =
    Xshard.create ~config ~engine
      ~cells:
        {
          Xshard.replica = (fun ~shard rid -> (cell ~shard rid).replica);
          repo = (fun ~shard rid -> (cell ~shard rid).repo);
          wrapper = (fun ~shard rid -> (cell ~shard rid).wrapper);
        }
  in
  let recovery =
    let node rid = cell ~shard:0 rid in
    Recovery.create ~config ~engine ~chains ~metrics ~trace ~orchestrator
      {
        Recovery.replica = (fun rid -> (node rid).replica);
        fetching = (fun rid -> Option.is_some (node rid).fetcher);
        drop_fetch = (fun rid -> (node rid).fetcher <- None);
        fetch = (fun rid -> launch_fetch (the ()) (node rid));
        restart =
          (fun rid ->
            let n = node rid in
            n.wrapper.Service.restart ();
            Objrepo.rebuild_all_digests n.repo);
        discard_below = (fun rid seq -> Objrepo.discard_below (node rid).repo seq);
        swap_state =
          (fun ~slot ~standby ->
            let a = node slot and b = node standby in
            let repo = a.repo and wrapper = a.wrapper in
            a.repo <- b.repo;
            a.wrapper <- b.wrapper;
            b.repo <- repo;
            b.wrapper <- wrapper);
      }
  in
  (* Each cell's timers run on its physical node, so they die with a crash
     of that node, and go back to the cell that armed them. *)
  let replica_net ~shard rid =
    {
      Message.send =
        (fun ~dst env ->
          match !t_cell with
          (* Sends during construction (the seq-0 checkpoint) predate any
             adversary; the plain path also keeps them safe. *)
          | None -> Engine.send engine ~src:rid ~dst (Bft env)
          | Some t -> (
            match pp_attack_extra t rid env with
            | None -> ()  (* the adversary muted this pre-prepare *)
            | Some extra_us -> Engine.send engine ~extra_us ~src:rid ~dst (Bft env)));
      set_timer =
        (fun ~after_us tm ->
          Engine.set_timer engine ~node:rid ~after:(Sim_time.of_us after_us) (fun () ->
              Replica.on_timer (cell ~shard rid).replica tm));
      cancel_timer = (fun id -> Engine.cancel_timer engine id);
      now_us = (fun () -> Engine.now engine);
    }
  in
  let make_cell ~role ~shard ~wrapper rid =
    let repo =
      Objrepo.create ~cache_objs:config.Types.st_cache_objs
        ~wrapper:(Xshard.shard_view config ~shard wrapper) ~branching ()
    in
    (* Every app upcall reads [repo]/[wrapper] through the node record (not
       the construction-time bindings), so a promotion's repo/wrapper swap
       takes effect for execution and checkpointing alike.  The only
       exception is the seq-0 checkpoint taken from inside [Replica.create],
       which necessarily predates the node record. *)
    let app =
      {
        Replica.execute =
          (if n_shards <= 1 then
             fun ~client ~timestamp:_ ~operation ~nondet ~read_only ->
               let node = cell ~shard rid in
               node.wrapper.Service.execute ~client ~operation ~nondet ~read_only
                 ~modify:(fun i -> Objrepo.modify node.repo i)
           else Xshard.execute xshard ~rid ~shard);
        propose_nondet =
          (fun ~operation ->
            (cell ~shard rid).wrapper.Service.propose_nondet
              ~clock_us:(Engine.local_clock engine rid) ~operation);
        check_nondet =
          (fun ~operation ~nondet ->
            (cell ~shard rid).wrapper.Service.check_nondet
              ~clock_us:(Engine.local_clock engine rid) ~operation ~nondet);
        ready = (if n_shards <= 1 then Replica.always_ready else Xshard.ready xshard ~rid ~shard);
        take_checkpoint =
          (fun ~seq ->
            match replica_cells.(shard).(rid) with
            | Some node ->
              Objrepo.take_checkpoint node.repo ~seq
                ~client_rows:(Replica.export_client_table node.replica)
            | None -> Objrepo.take_checkpoint repo ~seq ~client_rows:[]);
        discard_checkpoints_below =
          (fun seq ->
            match replica_cells.(shard).(rid) with
            | Some node -> Objrepo.discard_below node.repo seq
            | None -> Objrepo.discard_below repo seq);
        start_fetch = (fun ~seq ~digest -> start_fetch (the ()) (cell ~shard rid) ~seq ~digest);
      }
    in
    let replica =
      Replica.create ~metrics ~profile ~role ~shard ~config ~id:rid ~keychain:chains.(rid)
        ~net:(replica_net ~shard rid) ~app ()
    in
    let node =
      {
        rid;
        shard;
        replica;
        repo;
        wrapper;
        standby = Recovery.standby_sync recovery rid;
        fetcher = None;
        recovery_stats =
          (if shard = 0 then Recovery.stats recovery rid else Recovery.fresh_stats ());
      }
    in
    replica_cells.(shard).(rid) <- Some node;
    node
  in
  let wrappers = Array.init group (fun rid -> make_wrapper rid) in
  if n_shards > 1 then begin
    (* Promotion swaps a node's single repo/wrapper pair; per-shard repos
       make that a per-cell operation the pool machinery does not implement,
       so sharded systems run without warm standbys. *)
    Base_util.Invariant.require (config.Types.s = 0)
      "Runtime.create: a sharded object space cannot run a standby pool";
    let n_objects = wrappers.(0).Service.n_objects in
    for shard = 0 to n_shards - 1 do
      let lo, hi = Types.shard_range config ~n_objects shard in
      Base_util.Invariant.require (hi > lo)
        "Runtime.create: every shard must own at least one abstract object"
    done
  end;
  let cells =
    Array.init n_shards (fun shard ->
        Array.init n (fun rid ->
            make_cell ~role:Replica.Active ~shard ~wrapper:wrappers.(rid) rid))
  in
  let replicas = cells.(0) in
  let standbys =
    Array.init config.Types.s (fun i ->
        make_cell ~role:Replica.Standby ~shard:0 ~wrapper:wrappers.(n + i) (n + i))
  in
  (* Clients route each request to the agreement instance owning its
     footprint; multi-shard footprints go to the lowest shard, which
     coordinates the cross-shard commit.  The decode is pure protocol, so
     replica 0's wrapper answers for everyone. *)
  let route =
    if n_shards <= 1 then fun _ -> 0
    else
      let w = wrappers.(0) in
      fun operation ->
        match w.Service.oids_of_op ~operation with
        | [] -> 0
        | oids ->
          List.fold_left
            (fun acc oid -> min acc (Types.shard_of_oid config oid))
            (n_shards - 1) oids
  in
  let clients =
    Array.init n_clients (fun k ->
        let cid = group + k in
        let net =
          {
            Message.send = (fun ~dst env -> Engine.send engine ~src:cid ~dst (Bft env));
            set_timer =
              (fun ~after_us ts ->
                Engine.set_timer engine ~node:cid ~after:(Sim_time.of_us after_us) (fun () ->
                    Client.on_timer (the ()).clients.(k) ts));
            cancel_timer = (fun id -> Engine.cancel_timer engine id);
            now_us = (fun () -> Engine.now engine);
          }
        in
        (* All clients share the registry (and so one aggregate latency
           histogram) — constant memory per client, however many complete. *)
        Client.create ~metrics ~profile ~route ~config ~id:cid ~keychain:chains.(cid) ~net ())
  in
  let t =
    {
      engine;
      config;
      replicas;
      cells;
      standbys;
      clients;
      orchestrator;
      xshard;
      recovery;
      metrics;
      profile;
      trace;
      st_totals = State_transfer.fresh_stats ();
      roll_cursor = 0;
      pp_attack = None;
    }
  in
  t_cell := Some t;
  (* Register delivery handlers.  Each physical node registers once and
     hands each delivery to the cell it names: protocol envelopes by their
     shard tag, state transfer and corrupted bytes by their shard field. *)
  let deliver rid ~src:_ msg =
    let cell shard = if shard >= 0 && shard < n_shards then replica_cells.(shard).(rid) else None in
    match msg with
    | Bft env -> (
      match cell env.Message.shard with
      | Some node -> Replica.receive node.replica env
      | None -> ())  (* shard tag out of range: drop *)
    | St { from; shard; body } -> (
      match cell shard with Some node -> handle_st t node ~from body | None -> ())
    | Raw { from; shard; macs; bytes } -> (
      (* Corrupted-in-flight bytes: feed the wire-decode path, which
         counts and drops them (bft.reject.decode / bft.reject.mac). *)
      match cell shard with
      | Some node -> Replica.receive_wire ~shard node.replica ~sender:from ~macs bytes
      | None -> ())
  in
  for rid = 0 to n - 1 do
    Engine.add_node engine ~id:rid (deliver rid);
    Array.iter (fun row -> Replica.start_status_timer row.(rid).replica) cells
  done;
  Array.iter
    (fun node ->
      Engine.add_node engine ~id:node.rid (deliver node.rid);
      Recovery.arm_shadow recovery node.rid)
    standbys;
  Array.iter
    (fun c ->
      Engine.add_node engine ~id:(Client.id c) (fun ~src:_ msg ->
          match msg with Bft env -> Client.receive c env | St _ | Raw _ -> ()))
    clients;
  (* The orchestrator receives nothing; it exists to own the fault-plan and
     recovery timers, which must outlive any replica crash. *)
  Engine.add_node engine ~id:orchestrator (fun ~src:_ _ -> ());
  t

(* --- client-facing API ------------------------------------------------------ *)

let invoke t ~client:idx ?read_only ~operation k =
  Client.invoke t.clients.(idx) ?read_only ~operation k

(* Step the simulation until [done_ ()] holds; [Error] reports a stall
   (quiescent queue or exhausted budget) instead of raising, so chaos
   experiments can treat a liveness loss as data. *)
let step_until t ~what ~max_events done_ =
  let events = ref 0 in
  let quiescent = ref false in
  while (not (done_ ())) && (not !quiescent) && !events < max_events do
    if Engine.step t.engine then incr events else quiescent := true
  done;
  if done_ () then Ok ()
  else if !quiescent then Error (Printf.sprintf "Runtime.%s: simulation went quiescent" what)
  else Error (Printf.sprintf "Runtime.%s: event budget exceeded" what)

let try_run_until_idle ?(max_events = 5_000_000) t =
  step_until t ~what:"run_until_idle" ~max_events (fun () ->
      not (Array.exists (fun c -> Client.outstanding c > 0) t.clients))

let run_until_idle ?max_events t =
  match try_run_until_idle ?max_events t with Ok () -> () | Error e -> raise (Stalled e)

let try_invoke_sync ?(max_events = 5_000_000) t ~client:idx ?read_only ~operation () =
  let result = ref None in
  invoke t ~client:idx ?read_only ~operation (fun r -> result := Some r);
  match
    step_until t ~what:"invoke_sync" ~max_events (fun () ->
        match !result with Some _ -> true | None -> false)
  with
  | Error e -> Error e
  | Ok () -> (
    match !result with
    | Some r -> Ok r
    | None -> Error "Runtime.invoke_sync: no result")

let invoke_sync t ~client ?read_only ~operation () =
  match try_invoke_sync t ~client ?read_only ~operation () with
  | Ok r -> r
  | Error e -> raise (Stalled e)

let n_shards t = Array.length t.cells

let shard_replica t ~shard rid = t.cells.(shard).(rid)

(* --- observability export --------------------------------------------------- *)

let counters_json (c : Engine.counters) =
  Base_obs.Json.obj
    [
      ("corrupted_msgs", Base_obs.Json.Int c.Engine.corrupted_msgs);
      ("dropped_msgs", Base_obs.Json.Int c.Engine.dropped_msgs);
      ("recv_bytes", Base_obs.Json.Int c.Engine.recv_bytes);
      ("recv_msgs", Base_obs.Json.Int c.Engine.recv_msgs);
      ("sent_bytes", Base_obs.Json.Int c.Engine.sent_bytes);
      ("sent_msgs", Base_obs.Json.Int c.Engine.sent_msgs);
    ]

let metrics_report t =
  let open Base_obs.Json in
  let st = t.st_totals in
  obj
    [
      ( "net",
        obj
          [
            ( "labels",
              obj
                (List.map
                   (fun (label, c) -> (label, counters_json c))
                   (Engine.label_counters t.engine)) );
            ("max_queue_depth", Int (Engine.max_queue_depth t.engine));
            ("queue_depth", Int (Engine.queue_depth t.engine));
            ("totals", counters_json (Engine.total_counters t.engine));
          ] );
      ("metrics", Base_obs.Metrics.to_json t.metrics);
      ("recoveries", List (List.map Recovery.timeline_json (recovery_timelines t)));
      ( "state_transfer",
        obj
          [
            ("bytes_fetched", Int st.State_transfer.bytes_fetched);
            ("cache_hits", Int st.State_transfer.cache_hits);
            ("chunks_fetched", Int st.State_transfer.chunks_fetched);
            ("heads_rejected", Int st.State_transfer.heads_rejected);
            ("meta_fetched", Int st.State_transfer.meta_fetched);
            ("meta_rejected", Int st.State_transfer.meta_rejected);
            ("objects_fetched", Int st.State_transfer.objects_fetched);
            ("objects_rejected", Int st.State_transfer.objects_rejected);
            ("quarantines", Int st.State_transfer.quarantines);
            ("rejected", Int (State_transfer.rejected st));
            ("retries", Int st.State_transfer.retries);
          ] );
      ("trace_events", Int (Base_obs.Trace.length t.trace));
    ]
