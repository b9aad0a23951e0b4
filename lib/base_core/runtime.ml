module Digest = Base_crypto.Digest_t
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Faultplan = Base_sim.Faultplan
module Types = Base_bft.Types
module Message = Base_bft.Message
module Replica = Base_bft.Replica
module Client = Base_bft.Client
module Auth = Base_crypto.Auth

exception Stalled of string

(* Broken internal wiring (a node record referenced before construction
   finishes).  Unreachable by design and never message-triggered; kept as a
   dedicated exception so Byzantine-facing paths stay free of [assert]. *)
exception Internal_error of string

include Cell

(* An attack-preprepare window: while [atk_until] is in the future, the
   cell's pre-prepares are muted with probability [atk_mute_p] and the
   surviving ones delayed by [atk_delay_us]. *)
type pp_attack = { atk_mute_p : float; atk_delay_us : int; atk_until : int64 }

(* The adversary of one replica cell.  A Byzantine replica runs the honest
   code; what the fault plan makes it send instead is decided here, on the
   way out: its behaviour, then its attack window. *)
type adversary = {
  mutable behavior : Faultplan.behavior;
  mutable pp_attack : pp_attack option;
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
  xshard : Xshard.t;
  recovery : Recovery.t;
  metrics : Base_obs.Metrics.t;
  profile : Base_obs.Profile.t;
  trace : Base_obs.Trace.t;
  adversaries : adversary array array;
      (* [adversaries.(shard).(rid)]: one per cell, standbys in row 0 *)
  mutable roll_cursor : int;  (* next slot a faultplan [promote] fills *)
}

let engine_config ?seed ?drop_p () =
  let base = Engine.default_config ~size_of:msg_size ~label_of:msg_label in
  {
    base with
    seed = Option.value seed ~default:base.Engine.seed;
    drop_p = Option.value drop_p ~default:base.Engine.drop_p;
    kind_of = msg_kind;
  }

let engine t = t.engine

let config t = t.config

let replica t i = t.replicas.(i)

let replicas t = t.replicas

let standby t i = t.standbys.(i - t.config.Types.n)

let client t i = t.clients.(i)

let now t = Engine.now t.engine

let metrics t = t.metrics

let trace t = t.trace

(* Every replica cell, standbys included, in [(shard, rid)] order: the
   standbys follow row 0, and only unsharded systems have any. *)
let all_cells t = List.concat_map Array.to_list (Array.to_list t.cells) @ Array.to_list t.standbys

let st_totals t =
  State_transfer.sum (List.map (fun node -> node.recovery_stats.fetched) (all_cells t))

let recovery_timelines t = Recovery.timelines t.recovery

let trace_event t name attrs = Base_obs.Trace.event t.trace ~ts:(now t) ~name attrs

(* --- chaos: fault-plan execution and the per-cell adversary ---------------- *)

(* Apply [f] to the adversary of [rid]'s cell in [shard], or of each of its
   cells without one.  Both fault-plan verbs set cells through here; a shard
   or node outside the system names no cell. *)
let each_adversary ?shard t rid f =
  let in_range a i = i >= 0 && i < Array.length a in
  let set row = if in_range row rid then f row.(rid) in
  match shard with
  | None -> Array.iter set t.adversaries
  | Some s -> if in_range t.adversaries s then set t.adversaries.(s)

let set_behavior ?shard t rid b = each_adversary ?shard t rid (fun adv -> adv.behavior <- b)

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
    (* A rebooted node lost its pending timers with the crash; re-arm them,
       the cross-shard kick included. *)
    Recovery.rebooted t.recovery n;
    if n < t.config.Types.n then Xshard.rebooted t.xshard n;
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
    set_behavior ?shard t node behavior;
    trace_event t "fault.behavior"
      ([ ("behavior", Faultplan.behavior_name behavior); ("rid", string_of_int node) ]
      @ match shard with Some s -> [ ("shard", string_of_int s) ] | None -> [])
  | Faultplan.Attack_pre_prepare { node; mute_p; delay_us; for_us; shard } ->
    let atk = { atk_mute_p = mute_p; atk_delay_us = delay_us; atk_until = until for_us } in
    each_adversary ?shard t node (fun adv -> adv.pp_attack <- Some atk);
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

(* Send what the adversary makes cell [rid] send to [dst] in place of the
   honest [env].  A muted cell sends nothing.  A liar garbles the result of
   each REPLY; an equivocator proposes a conflicting non-deterministic value
   to odd replicas.  Both re-seal under [keychain], the node's own keys,
   which a Byzantine node holds.  What leaves then passes the cell's attack
   window: muting draws per destination, so a broadcast can reach an
   arbitrary subset of the backups (omission-style equivocation). *)
let adversary_send ~engine ~metrics ~keychain ~n adv ~rid ~dst (env : Message.envelope) =
  let send ?extra_us env = Engine.send engine ?extra_us ~src:rid ~dst (Bft env) in
  let count name = Base_obs.Metrics.incr (Base_obs.Metrics.counter metrics name) in
  let through_window (env : Message.envelope) =
    match (adv.pp_attack, env.body) with
    | Some atk, _ when Sim_time.compare (Engine.now engine) atk.atk_until >= 0 ->
      adv.pp_attack <- None;
      send env
    | Some atk, Message.Pre_prepare _ ->
      if atk.atk_mute_p > 0.0 && Base_util.Prng.bernoulli (Engine.prng engine) atk.atk_mute_p
      then count "adversary.pp_muted"
      else begin
        if atk.atk_delay_us > 0 then count "adversary.pp_delayed";
        send ~extra_us:atk.atk_delay_us env
      end
    | _ -> send env
  in
  match (adv.behavior, env.Message.body) with
  | Faultplan.B_mute, _ -> ()
  | Faultplan.B_lie, Message.Reply r ->
    let result = String.map (fun c -> Char.chr (Char.code c lxor 0x5a)) r.result in
    through_window
      (Message.seal_for keychain ~shard:env.shard ~sender:rid ~receiver:r.client
         (Message.Reply { r with result }))
  | Faultplan.B_equivocate, Message.Pre_prepare pp when dst mod 2 = 1 ->
    let nondet = pp.nondet ^ "\001" in
    let digest = Message.batch_digest pp.requests ~nondet in
    through_window
      (Message.seal keychain ~shard:env.shard ~sender:rid ~n_receivers:n
         (Message.Pre_prepare { pp with nondet; digest }))
  | (Faultplan.B_honest | B_lie | B_equivocate), _ -> through_window env

(* --- proactive recovery ------------------------------------------------------ *)

let enable_proactive_recovery ?reboot_us ?promote_us ?migrate ~period_us t =
  Recovery.enable ?reboot_us ?promote_us ?migrate ~period_us t.recovery

let disable_proactive_recovery t = Recovery.disable t.recovery

let recover_now ?reboot_us t rid = Recovery.recover_now ?reboot_us t.recovery rid

let promote_now ?promote_us t rid = Recovery.promote_now ?promote_us t.recovery rid

(* --- construction ---------------------------------------------------------- *)

(* Partition-tree fan-out of every replica's object repository. *)
let branching = 16

let create ?(engine_config = engine_config ()) ?profile ~config ~make_wrapper ~n_clients () =
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
     the group, which is what the benchmark tables report.  The engine's
     traffic lives in its own counter records, not here. *)
  let metrics = Base_obs.Metrics.create () in
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
  let adversaries =
    Array.init n_shards (fun _ ->
        Array.init group (fun _ -> { behavior = Faultplan.B_honest; pp_attack = None }))
  in
  (* Every message a cell sends leaves through its adversary; an honest
     cell outside any attack window sends it as it is.  Each cell's timers
     run on its physical node, so they die with a crash of that node, and go
     back to the cell that armed them. *)
  let replica_net ~shard rid =
    let adv = adversaries.(shard).(rid) in
    {
      Message.send =
        (fun ~dst env ->
          match adv with
          | { behavior = Faultplan.B_honest; pp_attack = None } ->
            Engine.send engine ~src:rid ~dst (Bft env)
          | _ -> adversary_send ~engine ~metrics ~keychain:chains.(rid) ~n adv ~rid ~dst env);
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
    let node_repo () =
      match replica_cells.(shard).(rid) with Some node -> node.repo | None -> repo
    in
    let app =
      {
        Replica.execute =
          (if n_shards <= 1 then
             fun ~client ~timestamp:_ ~operation ~nondet ~read_only ->
               let node = cell ~shard rid in
               node.wrapper.Service.execute ~client ~operation ~nondet ~read_only
                 ~modify:(fun i -> Objrepo.modify node.repo i)
           else
             fun ~client ~timestamp ~operation ~nondet ~read_only ->
               Xshard.execute (the ()).xshard ~rid ~shard ~client ~timestamp ~operation ~nondet
                 ~read_only);
        propose_nondet =
          (fun ~operation ->
            (cell ~shard rid).wrapper.Service.propose_nondet
              ~clock_us:(Engine.local_clock engine rid) ~operation);
        check_nondet =
          (fun ~operation ~nondet ->
            (cell ~shard rid).wrapper.Service.check_nondet
              ~clock_us:(Engine.local_clock engine rid) ~operation ~nondet);
        ready =
          (if n_shards <= 1 then Replica.always_ready
           else
             fun ~client ~timestamp ~operation ->
               Xshard.ready (the ()).xshard ~rid ~shard ~client ~timestamp ~operation);
        take_checkpoint =
          (fun ~seq ~client_rows -> Objrepo.take_checkpoint (node_repo ()) ~seq ~client_rows);
        discard_checkpoints_below = (fun seq -> Objrepo.discard_below (node_repo ()) seq);
        start_fetch =
          (fun ~seq ~digest ->
            Recovery.start_fetch (the ()).recovery (cell ~shard rid) ~seq ~digest);
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
        standby =
          (if Types.is_standby config rid then
             Some
               {
                 ss_synced_seq = -1;
                 ss_synced_at_us = -1L;
                 ss_root = Digest.zero;
                 ss_client_rows = [];
                 ss_promotions = 0;
               }
           else None);
        fetcher = None;
        divergences = 0;
        recovery_stats = { recoveries = 0; fetched = State_transfer.fresh_stats () };
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
      xshard = Xshard.create ~config ~engine cells;
      recovery =
        Recovery.create ~config ~engine ~chains ~metrics ~trace ~orchestrator ~standbys cells;
      metrics;
      profile;
      trace;
      adversaries;
      roll_cursor = 0;
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
      | Some node -> (
        Replica.receive node.replica env;
        match env.Message.body with
        | Message.Checkpoint _ when Option.is_some node.fetcher ->
          Recovery.checkpoint_heard t.recovery node
        | _ -> ())
      | None -> ())  (* shard tag out of range: drop *)
    | St { from; shard; body } -> (
      match cell shard with Some node -> Recovery.handle_st t.recovery node ~from body | None -> ())
    | Raw { from; shard; macs; bytes } -> (
      (* Corrupted-in-flight bytes: feed the wire-decode path, which
         counts and drops them (stats.rejected_decode / rejected_macs). *)
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
      Recovery.arm_shadow t.recovery node.rid)
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

let stats_json (node : replica_node) =
  let s = Replica.stats node.replica in
  Base_obs.Json.(
    obj
      [
        ("catchup_status", Int s.Replica.catchup_status);
        ("checkpoints_taken", Int s.Replica.checkpoints_taken);
        ("executed", Int s.Replica.executed);
        ("executed_requests", Int s.Replica.executed_requests);
        ("fetches", Int s.Replica.fetches);
        ("rejected_decode", Int s.Replica.rejected_decode);
        ("rejected_insane", Int s.Replica.rejected_insane);
        ("rejected_macs", Int s.Replica.rejected_macs);
        ("rid", Int node.rid);
        ("shard", Int node.shard);
        ("view_changes", Int s.Replica.view_changes);
        ("vouched_proposals", Int s.Replica.vouched_proposals);
        ("vouchers_sent", Int s.Replica.vouchers_sent);
      ])

let metrics_report t =
  let open Base_obs.Json in
  let st = st_totals t in
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
      ("replicas", List (List.map stats_json (all_cells t)));
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
      ("trace_dropped", Int (Base_obs.Trace.dropped t.trace));
      ("trace_events", Int (Base_obs.Trace.length t.trace));
    ]
