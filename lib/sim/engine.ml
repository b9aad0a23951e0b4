module Prng = Base_util.Prng

type 'msg config = {
  seed : int64;
  size_of : 'msg -> int;
  label_of : 'msg -> string;
  kind_of : 'msg -> string;
  latency_us : int;
  jitter_us : int;
  bandwidth_bps : int;
  drop_p : float;
  clock_skew_us : int;
  clock_drift_ppm : int;
}

let base_label label =
  match String.index_opt label '(' with Some i -> String.sub label 0 i | None -> label

let default_config ~size_of ~label_of =
  (* Default [kind_of] derives the accounting key from the trace label.
     Correct, but it formats the label's parameters on every send — hot
     message types should override the field with a constant-string
     function ([{ base with kind_of = ... }]). *)
  let kind_of msg = base_label (label_of msg) in
  {
    seed = 1L;
    size_of;
    label_of;
    kind_of;
    latency_us = 60;
    jitter_us = 15;
    bandwidth_bps = 100_000_000;
    drop_p = 0.0;
    clock_skew_us = 50_000;
    clock_drift_ppm = 100;
  }

type counters = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
  mutable dropped_msgs : int;
  mutable corrupted_msgs : int;
}

let fresh_counters () =
  {
    sent_msgs = 0;
    sent_bytes = 0;
    recv_msgs = 0;
    recv_bytes = 0;
    dropped_msgs = 0;
    corrupted_msgs = 0;
  }

(* A scheduled fault on a set of links; [-1] endpoints are wildcards.
   Expired windows are pruned lazily on the next send. *)
type fault_kind = F_delay of int | F_drop of float | F_corrupt of float

type link_fault = {
  lf_src : int;
  lf_dst : int;
  lf_kind : fault_kind;
  lf_until : Sim_time.t;
}

type 'msg node = {
  deliver : src:int -> 'msg -> unit;
  mutable up : bool;
  clock_offset : int64;
  clock_drift : float; (* multiplicative, close to 1.0 *)
}

and 'msg queued =
  | Q_deliver of { src : int; dst : int; msg : 'msg; size : int }
  | Q_timer of { id : int; node : int; fire : unit -> unit }

and 'msg t = {
  config : 'msg config;
  rng : Prng.t;
  queue : 'msg queued Event_heap.t;
  (* Nodes indexed by id: ids are dense (replicas, clients, then the
     orchestrator/injector pseudo-nodes), so an option array turns the
     two table lookups per message into loads. *)
  mutable nodes : 'msg node option array;
  mutable time : Sim_time.t;
  mutable next_timer_id : int;
  (* Ids of the timers still queued: [cancel_timer] removes one, and its
     pop skips it.  An id leaves the table when its timer pops, so a timer
     that fired, was dropped or was cancelled leaves nothing behind. *)
  armed : (int, unit) Hashtbl.t;
  mutable partition_groups : (int list * int list) option;
  (* Traffic by message type, keyed by [config.kind_of]: the one tally of
     the network; [total_counters] sums it. *)
  labels : (string, counters) Hashtbl.t;
  mutable max_queue_depth : int;
  mutable sink : Base_obs.Trace.t option;
  mutable link_faults : link_fault list;
  mutable corruptor : (Prng.t -> 'msg -> 'msg option) option;
  mutable prof : Base_obs.Profile.t;
  mutable p_send : Base_obs.Profile.probe;
  mutable p_dispatch : Base_obs.Profile.probe;
}

let create config =
  {
    config;
    rng = Prng.create config.seed;
    queue = Event_heap.create ();
    nodes = [||];
    time = Sim_time.zero;
    next_timer_id = 0;
    armed = Hashtbl.create 16;
    partition_groups = None;
    labels = Hashtbl.create 16;
    max_queue_depth = 0;
    sink = None;
    link_faults = [];
    corruptor = None;
    prof = Base_obs.Profile.disabled;
    p_send = Base_obs.Profile.probe Base_obs.Profile.disabled "engine.send";
    p_dispatch = Base_obs.Profile.probe Base_obs.Profile.disabled "engine.dispatch";
  }

let label_counters_of t msg =
  let key = t.config.kind_of msg in
  match Hashtbl.find_opt t.labels key with
  | Some c -> c
  | None ->
    let c = fresh_counters () in
    Hashtbl.replace t.labels key c;
    c

let note_queue_depth t =
  let depth = Event_heap.length t.queue in
  if depth > t.max_queue_depth then t.max_queue_depth <- depth

let find_node t id = if id >= 0 && id < Array.length t.nodes then t.nodes.(id) else None

(* [label_of] formats the message's parameters, so it runs only when a sink
   is attached: untraced runs keep it off the per-message hot path. *)
let trace t name ~src ~dst ~size msg =
  match t.sink with
  | None -> ()
  | Some sink ->
    Base_obs.Trace.event sink ~ts:t.time ~name
      [
        ("bytes", string_of_int size);
        ("dst", string_of_int dst);
        ("label", t.config.label_of msg);
        ("src", string_of_int src);
      ]

let add_node t ~id deliver =
  if find_node t id <> None then invalid_arg "Engine.add_node: duplicate id";
  if id < 0 then invalid_arg "Engine.add_node: negative id";
  if id >= Array.length t.nodes then begin
    let cap = max 16 (max (id + 1) (2 * Array.length t.nodes)) in
    let nodes = Array.make cap None in
    Array.blit t.nodes 0 nodes 0 (Array.length t.nodes);
    t.nodes <- nodes
  end;
  (* Offsets are non-negative (clocks ahead of virtual time by up to twice
     the skew) so local wall clocks never read negative near the origin. *)
  let skew = t.config.clock_skew_us in
  let offset = if skew = 0 then 0L else Int64.of_int (Prng.int t.rng (2 * skew)) in
  let ppm = t.config.clock_drift_ppm in
  let drift =
    if ppm = 0 then 1.0 else 1.0 +. (float_of_int (Prng.int t.rng (2 * ppm) - ppm) /. 1e6)
  in
  t.nodes.(id) <-
    Some
      {
        deliver;
        up = true;
        clock_offset = offset;
        clock_drift = drift;
      }

let get_node t id =
  match find_node t id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" id)

let set_node_up t id up = (get_node t id).up <- up

let node_is_up t id = (get_node t id).up

let now t = t.time

let local_clock t id =
  let n = get_node t id in
  Int64.add (Int64.of_float (Int64.to_float t.time *. n.clock_drift)) n.clock_offset

let blocked t src dst =
  match t.partition_groups with
  | None -> false
  | Some (a, b) -> (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a)

let link_matches f ~src ~dst =
  (f.lf_src = -1 || f.lf_src = src) && (f.lf_dst = -1 || f.lf_dst = dst)

(* Prune expired windows, then select the ones covering this link.  Pruning
   happens on the send path so an idle engine holds expired faults — harmless,
   they match nothing once [lf_until] passes. *)
let active_faults t ~src ~dst =
  match t.link_faults with
  | [] -> []
  | fs ->
    t.link_faults <- List.filter (fun f -> Sim_time.compare f.lf_until t.time > 0) fs;
    List.filter (fun f -> link_matches f ~src ~dst) t.link_faults

let add_fault t ~src ~dst ~until kind =
  t.link_faults <- { lf_src = src; lf_dst = dst; lf_kind = kind; lf_until = until } :: t.link_faults

let fault_delay t ~src ~dst ~extra_us ~until = add_fault t ~src ~dst ~until (F_delay extra_us)

let fault_drop t ~src ~dst ~p ~until = add_fault t ~src ~dst ~until (F_drop p)

let fault_corrupt t ~src ~dst ~p ~until = add_fault t ~src ~dst ~until (F_corrupt p)

let set_corruptor t f = t.corruptor <- Some f

(* The fault scans below are top-level recursions rather than closures over
   the send's arguments, so a send with no link faults allocates nothing
   for them.  Each draws the PRNG in list order and stops at the first hit,
   as [List.exists] would. *)
let rec draws_drop rng = function
  | [] -> false
  | { lf_kind = F_drop p; _ } :: rest -> (p > 0.0 && Prng.bernoulli rng p) || draws_drop rng rest
  | { lf_kind = F_delay _ | F_corrupt _; _ } :: rest -> draws_drop rng rest

let rec draws_corrupt rng = function
  | [] -> false
  | { lf_kind = F_corrupt p; _ } :: rest ->
    (p > 0.0 && Prng.bernoulli rng p) || draws_corrupt rng rest
  | { lf_kind = F_delay _ | F_drop _; _ } :: rest -> draws_corrupt rng rest

let rec fault_delay_us acc = function
  | [] -> acc
  | { lf_kind = F_delay d; _ } :: rest -> fault_delay_us (acc + d) rest
  | { lf_kind = F_drop _ | F_corrupt _; _ } :: rest -> fault_delay_us acc rest

let drop_msg t per_label ~src ~dst ~size msg =
  per_label.dropped_msgs <- per_label.dropped_msgs + 1;
  trace t "net.drop" ~src ~dst ~size msg

(* Queue [msg'] (the message as delivered, possibly corrupted) for [dst];
   [msg] is the one sent, which the trace events label. *)
let enqueue t per_label ~src ~dst ~size ~delay_us ~corrupted msg msg' =
  if corrupted then begin
    per_label.corrupted_msgs <- per_label.corrupted_msgs + 1;
    trace t "net.corrupt" ~src ~dst ~size msg
  end;
  let jitter =
    if t.config.jitter_us = 0 then 0.0
    else Prng.exponential t.rng ~mean:(float_of_int t.config.jitter_us)
  in
  let tx_us =
    if t.config.bandwidth_bps = 0 then 0.0
    else float_of_int (size * 8) /. float_of_int t.config.bandwidth_bps *. 1e6
  in
  let delay = Sim_time.of_us (t.config.latency_us + delay_us + int_of_float (jitter +. tx_us)) in
  trace t "net.send" ~src ~dst ~size msg;
  Event_heap.push t.queue ~time:(Sim_time.add t.time delay)
    (Q_deliver { src; dst; msg = msg'; size });
  note_queue_depth t

let send t ?(extra_us = 0) ~src ~dst msg =
  Base_obs.Profile.start t.prof t.p_send;
  let size = t.config.size_of msg in
  ignore (get_node t src);  (* an unknown sender is a wiring bug: fail loudly *)
  let per_label = label_counters_of t msg in
  per_label.sent_msgs <- per_label.sent_msgs + 1;
  per_label.sent_bytes <- per_label.sent_bytes + size;
  let faults = active_faults t ~src ~dst in
  let dropped =
    blocked t src dst
    || (t.config.drop_p > 0.0 && Prng.bernoulli t.rng t.config.drop_p)
    || draws_drop t.rng faults
  in
  (if dropped then drop_msg t per_label ~src ~dst ~size msg
   else begin
     let delay_us = fault_delay_us extra_us faults in
     if not (draws_corrupt t.rng faults) then
       enqueue t per_label ~src ~dst ~size ~delay_us ~corrupted:false msg msg
     else
       (* A corrupt window needs a message-type-aware corruptor; without one
          (or when it declines) the mangled bytes are unparseable noise and
          the message is simply lost. *)
       match t.corruptor with
       | None -> drop_msg t per_label ~src ~dst ~size msg
       | Some c -> (
         match c t.rng msg with
         | Some msg' -> enqueue t per_label ~src ~dst ~size ~delay_us ~corrupted:true msg msg'
         | None -> drop_msg t per_label ~src ~dst ~size msg)
   end);
  Base_obs.Profile.stop t.prof t.p_send

let partition t a b = t.partition_groups <- Some (a, b)

let heal t = t.partition_groups <- None

let set_timer t ~node ~after fire =
  let id = t.next_timer_id in
  t.next_timer_id <- id + 1;
  Event_heap.push t.queue ~time:(Sim_time.add t.time after) (Q_timer { id; node; fire });
  Hashtbl.add t.armed id ();
  note_queue_depth t;
  id

let cancel_timer t id = Hashtbl.remove t.armed id

let dispatch t queued =
  Base_obs.Profile.start t.prof t.p_dispatch;
  (match queued with
  | Q_deliver { src; dst; msg; size } -> begin
    match find_node t dst with
    | None -> ()
    | Some node ->
      let per_label = label_counters_of t msg in
      if node.up then begin
        per_label.recv_msgs <- per_label.recv_msgs + 1;
        per_label.recv_bytes <- per_label.recv_bytes + size;
        trace t "net.deliver" ~src ~dst ~size msg;
        node.deliver ~src msg
      end
      else begin
        per_label.dropped_msgs <- per_label.dropped_msgs + 1;
        trace t "net.lost" ~src ~dst ~size msg
      end
  end
  | Q_timer { id; node; fire } ->
    if Hashtbl.mem t.armed id then begin
      Hashtbl.remove t.armed id;
      match find_node t node with
      | Some n when n.up -> fire ()
      | Some _ | None -> ()
    end);
  Base_obs.Profile.stop t.prof t.p_dispatch

let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    let queued = Event_heap.pop_exn t.queue in
    let time = Event_heap.last_time t.queue in
    if Sim_time.compare time t.time > 0 then t.time <- time;
    note_queue_depth t;
    dispatch t queued;
    true
  end

let run ?until ?max_events t =
  let handled = ref 0 in
  let continue () =
    (match max_events with Some m -> !handled < m | None -> true)
    &&
    match (until, Event_heap.min_time t.queue) with
    | _, None -> false
    | None, Some _ -> true
    | Some limit, Some next -> Sim_time.(next <= limit)
  in
  while continue () do
    ignore (step t);
    incr handled
  done;
  match until with
  | Some limit when Sim_time.(t.time < limit) -> t.time <- limit
  | _ -> ()

let advance_to t limit = run ~until:limit t

let prng t = t.rng

let label_counters t =
  Hashtbl.fold (fun label c acc -> (label, c) :: acc) t.labels []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_counters t =
  let sum = fresh_counters () in
  List.iter
    (fun (_, c) ->
      sum.sent_msgs <- sum.sent_msgs + c.sent_msgs;
      sum.sent_bytes <- sum.sent_bytes + c.sent_bytes;
      sum.recv_msgs <- sum.recv_msgs + c.recv_msgs;
      sum.recv_bytes <- sum.recv_bytes + c.recv_bytes;
      sum.dropped_msgs <- sum.dropped_msgs + c.dropped_msgs;
      sum.corrupted_msgs <- sum.corrupted_msgs + c.corrupted_msgs)
    (label_counters t);
  sum

let queue_depth t = Event_heap.length t.queue

let max_queue_depth t = t.max_queue_depth

let attach_trace t sink = t.sink <- Some sink

let attach_profile t p =
  t.prof <- p;
  t.p_send <- Base_obs.Profile.probe p "engine.send";
  t.p_dispatch <- Base_obs.Profile.probe p "engine.dispatch"
