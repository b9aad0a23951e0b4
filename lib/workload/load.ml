module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Client = Base_bft.Client
module Prng = Base_util.Prng

type arrivals = Fixed | Poisson

type stats = {
  mutable offered : int;
  mutable started : int;
  mutable completed : int;
  mutable completed_in_window : int;
  mutable shed : int;
  mutable backlog_peak : int;
  latency_us : Base_obs.Metrics.histogram;
}

type t = {
  runtime : Runtime.t;
  engine : Runtime.msg Engine.t;
  prng : Prng.t;
      (* The injector's own stream, NOT the engine's: arrival times must be a
         function of the load seed alone, so the same offered workload can be
         replayed against systems whose network consumes engine randomness
         differently (batching on/off, drops, ...). *)
  rate_per_s : float;
  arrivals : arrivals;
  operation : int -> string;
  read_only : int -> bool;
  max_backlog : int;
  start_us : Sim_time.t;
  end_us : Sim_time.t;  (* injection and measurement window end *)
  free : int Queue.t;  (* pool: client indices with no outstanding op *)
  pool_size : int;
  backlog : (Sim_time.t * int) Queue.t;  (* (arrival time, arrival index) *)
  mutable sched_us : float;  (* absolute virtual time of the next arrival *)
  mutable injecting : bool;
  stats : stats;
}

(* Latency under overload is dominated by backlog wait, so the histogram
   range extends well past the protocol's own round-trip times. *)
let latency_buckets =
  [|
    100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000.; 20_000.; 50_000.; 100_000.;
    200_000.; 500_000.; 1_000_000.; 2_000_000.; 5_000_000.; 10_000_000.; 30_000_000.;
  |]

(* A freed client immediately serves the oldest backlogged arrival, so the
   pool stays work-conserving under overload. *)
let rec dispatch t ~arrival_us ~idx client =
  t.stats.started <- t.stats.started + 1;
  Runtime.invoke t.runtime ~client ~read_only:(t.read_only idx) ~operation:(t.operation idx)
    (fun _result ->
      let now = Engine.now t.engine in
      t.stats.completed <- t.stats.completed + 1;
      if Sim_time.(now <= t.end_us) then
        t.stats.completed_in_window <- t.stats.completed_in_window + 1;
      Base_obs.Metrics.observe t.stats.latency_us
        (Int64.to_float (Sim_time.sub now arrival_us));
      match Queue.take_opt t.backlog with
      | Some (arrival_us, idx) -> dispatch t ~arrival_us ~idx client
      | None -> Queue.add client t.free)

let arrive t =
  let idx = t.stats.offered in
  t.stats.offered <- idx + 1;
  let now = Engine.now t.engine in
  match Queue.take_opt t.free with
  | Some client -> dispatch t ~arrival_us:now ~idx client
  | None ->
    (* Open loop: the arrival happened whether or not a client is free.  A
       bounded backlog keeps memory finite past saturation; arrivals beyond
       it are shed and counted, never silently dropped. *)
    if Queue.length t.backlog >= t.max_backlog then t.stats.shed <- t.stats.shed + 1
    else begin
      Queue.add (now, idx) t.backlog;
      if Queue.length t.backlog > t.stats.backlog_peak then
        t.stats.backlog_peak <- Queue.length t.backlog
    end

let interarrival_us t =
  let mean = 1e6 /. t.rate_per_s in
  match t.arrivals with
  | Fixed -> mean
  | Poisson -> Prng.exponential t.prng ~mean

let injector_node t = (Runtime.config t.runtime).Types.n_principals + 1

(* The injector's timer chain: each arrival arms the next. *)
let rec arrive_then_schedule t =
  arrive t;
  t.sched_us <- t.sched_us +. interarrival_us t;
  if t.sched_us < Int64.to_float t.end_us then begin
    let now = Int64.to_float (Engine.now t.engine) in
    let after = int_of_float (Float.max 0.0 (Float.round (t.sched_us -. now))) in
    ignore
      (Engine.set_timer t.engine ~node:(injector_node t) ~after:(Sim_time.of_us after)
         (fun () -> arrive_then_schedule t))
  end
  else t.injecting <- false

let create ?(seed = 42L) ?(arrivals = Poisson) ?(max_backlog = 100_000)
    ?(operation = fun i -> Printf.sprintf "set:%d:v%d" (i mod 8) i)
    ?(read_only = fun _ -> false) ~rate_per_s ~duration_us runtime =
  if rate_per_s <= 0.0 then invalid_arg "Load.create: rate must be positive";
  if duration_us <= 0 then invalid_arg "Load.create: duration must be positive";
  let engine = Runtime.engine runtime in
  let config = Runtime.config runtime in
  let pool_size = config.Types.n_principals - Types.group_size config in
  if pool_size = 0 then invalid_arg "Load.create: runtime has no clients";
  let free = Queue.create () in
  for c = 0 to pool_size - 1 do
    Queue.add c free
  done;
  let start_us = Engine.now engine in
  let t =
    {
      runtime;
      engine;
      prng = Prng.create seed;
      rate_per_s;
      arrivals;
      operation;
      read_only;
      max_backlog;
      start_us;
      end_us = Sim_time.add start_us (Sim_time.of_us duration_us);
      free;
      pool_size;
      backlog = Queue.create ();
      sched_us = Int64.to_float start_us;
      injecting = true;
      stats =
        {
          offered = 0;
          started = 0;
          completed = 0;
          completed_in_window = 0;
          shed = 0;
          backlog_peak = 0;
          latency_us =
            Base_obs.Metrics.histogram ~buckets:latency_buckets (Runtime.metrics runtime)
              "load.latency_us";
        };
    }
  in
  (* The injector is its own pseudo-node (one past the orchestrator), so its
     arrival timers ride the same deterministic event queue as the protocol.
     It receives nothing. *)
  Engine.add_node engine ~id:(injector_node t) (fun ~src:_ _ -> ());
  (* First arrival fires at the window start; subsequent ones chain. *)
  ignore
    (Engine.set_timer engine ~node:(injector_node t) ~after:Sim_time.zero (fun () ->
         arrive_then_schedule t));
  t

let stats t = t.stats

let finished t =
  (not t.injecting) && Queue.is_empty t.backlog && Queue.length t.free = t.pool_size

let run ?(max_events = 500_000_000) t =
  let events = ref 0 in
  let quiescent = ref false in
  while (not (finished t)) && (not !quiescent) && !events < max_events do
    if Engine.step t.engine then incr events else quiescent := true
  done;
  if finished t then Ok ()
  else if !quiescent then Error "Load.run: simulation went quiescent mid-load"
  else Error "Load.run: event budget exceeded"

let offered_rate_per_s t = t.rate_per_s

let duration_s t = Sim_time.to_sec (Sim_time.sub t.end_us t.start_us)

let throughput_per_s t =
  let d = duration_s t in
  if d <= 0.0 then 0.0 else float_of_int t.stats.completed_in_window /. d
