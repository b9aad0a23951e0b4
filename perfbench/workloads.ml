(* The four workloads.  Each iteration builds a fresh deployment from a seed
   (set-up), runs the workload (the measured phase), then checks the
   outputs and reads the layers' public stats (neither is timed).

   [Plain] iterations build through [Systems.make_*] — the library exactly
   as a user gets it — except the crash workload, which needs its own
   wrapper's [execute] to see when service resumes.  [Traced] iterations
   build through the instrumented builders with the in-program profile
   enabled; their virtual behaviour must match the plain run of the same
   seed exactly. *)

module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Client = Base_bft.Client
module Objrepo = Base_core.Objrepo
module St = Base_core.State_transfer
module Metrics = Base_obs.Metrics
module Profile = Base_obs.Profile
module Json = Base_obs.Json
module Systems = Base_workload.Systems
module Load = Base_workload.Load
module Andrew = Base_workload.Andrew
module Fs_iface = Base_workload.Fs_iface
module Prng = Base_util.Prng
module Digest = Base_crypto.Digest_t

type mode = Plain | Traced

type result = {
  setup_s : float;
  wall_s : float;  (** measured phase *)
  alloc_bytes : float;  (** allocated during the measured phase *)
  peak_heap_mb : float;
  attempted : int;
  completed : int;
  failed : int;
  p50_us : float;
  p99_us : float;
  samples : int;  (** latency samples behind p50/p99 *)
  tput_per_s : float;
  extra : (string * float) list;  (** workload-specific end-to-end metrics *)
  errors : string list;  (** failed correctness checks *)
  fingerprint : string;  (** virtual behaviour, compared across builders *)
  layers : (string * float) list;  (** per-layer values; traced runs only *)
  capture : Builders.capture option;
  n_principals : int;
  n_replicas : int;
}

let wall () = float_of_int (Span.now_ns ()) /. 1e9

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

let heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

let fdiv a b = if b = 0.0 then 0.0 else a /. b

let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* Every replica cell of the group, shard by shard. *)
let cells rt =
  let n = (Runtime.config rt).Types.n in
  List.concat_map
    (fun shard -> List.init n (fun rid -> Runtime.shard_replica rt ~shard rid))
    (List.init (Runtime.n_shards rt) Fun.id)

let n_clients rt =
  let c = Runtime.config rt in
  c.Types.n_principals - Types.group_size c

let rejected rt =
  List.fold_left
    (fun acc (c : Runtime.replica_node) ->
      let s = Replica.stats c.Runtime.replica in
      acc + s.Replica.rejected_macs + s.Replica.rejected_decode + s.Replica.rejected_insane)
    0 (cells rt)

(* Roots of every replica of each shard; the check is that they agree. *)
let roots rt ~rids =
  List.init (Runtime.n_shards rt) (fun shard ->
      List.map
        (fun rid -> Objrepo.current_root (Runtime.shard_replica rt ~shard rid).Runtime.repo)
        rids)

let roots_agree roots =
  List.for_all (function [] -> true | r :: rest -> List.for_all (Digest.equal r) rest) roots

let roots_hex roots = String.concat "," (List.map (fun l -> Digest.to_hex (List.hd l)) roots)

let quantile h q = if Metrics.hist_count h = 0 then 0.0 else Metrics.quantile h q

let hist_p50 rt name = quantile (Metrics.histogram (Runtime.metrics rt) name) 0.5

(* Quantile of latencies that the simulator quantises to whole
   microseconds: many samples tie, so treat a value v as spread evenly over
   [v - 0.5, v + 0.5) and interpolate inside the tied block (the grouped-data
   quantile). *)
let grouped_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let target = q *. float_of_int n in
    let i = ref 0 and res = ref sorted.(n - 1) and found = ref false in
    while (not !found) && !i < n do
      let v = sorted.(!i) in
      let j = ref !i in
      while !j < n && sorted.(!j) = v do
        incr j
      done;
      if float_of_int !j > target then begin
        res := v -. 0.5 +. ((target -. float_of_int !i) /. float_of_int (!j - !i));
        found := true
      end;
      i := !j
    done;
    !res
  end

(* --- per-layer values ------------------------------------------------------ *)

(* Values read from the layers' public stats after the measured phase.
   [ops] is the number of completed workload operations, [ro_ops] those
   issued read-only, [writes] those that modify state. *)
let stat_layers rt ~ops ~ro_ops ~writes ~minor ~major ~load =
  let engine = Runtime.engine rt in
  let tot = Engine.total_counters engine in
  let per_shard_max f =
    List.init (Runtime.n_shards rt) (fun shard ->
        List.fold_left
          (fun m rid -> max m (f (Replica.stats (Runtime.shard_replica rt ~shard rid).Runtime.replica)))
          0
          (List.init (Runtime.config rt).Types.n Fun.id))
    |> List.fold_left ( + ) 0
  in
  let instances = per_shard_max (fun s -> s.Replica.executed) in
  let requests = per_shard_max (fun s -> s.Replica.executed_requests) in
  let clients = List.init (n_clients rt) (fun i -> Client.stats (Runtime.client rt i)) in
  let csum f = List.fold_left (fun acc s -> acc + f s) 0 clients in
  let repos = List.map (fun (c : Runtime.replica_node) -> Objrepo.stats c.Runtime.repo) (cells rt) in
  let rsum f = List.fold_left (fun acc s -> acc + f s) 0 repos in
  let ckpts =
    List.fold_left
      (fun acc (c : Runtime.replica_node) ->
        acc + (Replica.stats c.Runtime.replica).Replica.checkpoints_taken)
      0 (cells rt)
  in
  let st = Runtime.st_totals rt in
  let episodes = Runtime.recovery_timelines rt in
  let fetch_ms =
    List.filter_map
      (fun tl ->
        if tl.Runtime.tl_migrated || tl.Runtime.tl_fetch_done_us < 0L
           || tl.Runtime.tl_reboot_done_us < 0L
        then None
        else
          Some (Int64.to_float (Int64.sub tl.Runtime.tl_fetch_done_us tl.Runtime.tl_reboot_done_us) /. 1e3))
      episodes
  in
  let offered, completed, shed, backlog = load in
  [
    ("sim.msgs_per_op", idiv tot.Engine.sent_msgs ops);
    ("sim.kb_per_op", fdiv (float_of_int tot.Engine.sent_bytes /. 1024.0) (float_of_int ops));
    ("sim.queue_depth_max", float_of_int (Engine.max_queue_depth engine));
    ("bft.batch_occupancy", idiv requests instances);
    ("bft.phase.pre_prepare_us.p50", hist_p50 rt "bft.phase.pre_prepare_us");
    ("bft.phase.prepare_us.p50", hist_p50 rt "bft.phase.prepare_us");
    ("bft.phase.commit_us.p50", hist_p50 rt "bft.phase.commit_us");
    ("bft.phase.execute_us.p50", hist_p50 rt "bft.phase.execute_us");
    ("bft.view_changes", float_of_int (per_shard_max (fun s -> s.Replica.view_changes)));
    ("bft.view_change_us.p50", hist_p50 rt "bft.view_change_us");
    ("bft.rejected", float_of_int (rejected rt));
    ("bft.checkpoints", float_of_int (per_shard_max (fun s -> s.Replica.checkpoints_taken)));
    ("client.retransmissions_per_kop", 1000.0 *. idiv (csum (fun s -> s.Client.retransmissions)) ops);
    ("client.ro_fallback_ratio", idiv (csum (fun s -> s.Client.read_only_fallbacks)) ro_ops);
    ("core.cow_copies_per_write", idiv (rsum (fun s -> s.Objrepo.objects_copied)) writes);
    ("core.digests_recomputed_per_ckpt", idiv (rsum (fun s -> s.Objrepo.digests_recomputed)) ckpts);
    ("core.st.objects_fetched", float_of_int st.St.objects_fetched);
    ("core.st.kb_fetched", float_of_int st.St.bytes_fetched /. 1024.0);
    ( "core.st.cache_hit_ratio",
      idiv st.St.cache_hits (st.St.cache_hits + st.St.objects_fetched) );
    ("core.st.retries", float_of_int st.St.retries);
    ("core.st.rejected", float_of_int (St.rejected st));
    ("core.recovery.episodes", float_of_int (List.length episodes));
    ( "core.recovery.fetch_ms",
      match fetch_ms with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) );
    ("load.offered", float_of_int offered);
    ("load.completed", float_of_int completed);
    ("load.shed", float_of_int shed);
    ("load.backlog_peak", float_of_int backlog);
    ("gc.minor_per_kop", 1000.0 *. idiv minor ops);
    ("gc.major_per_kop", 1000.0 *. idiv major ops);
  ]

(* Per-probe (calls, alloc bytes, ns) of the in-program profile. *)
let probe_table p =
  match Profile.to_json ~deterministic:false p with
  | Json.Obj rows ->
    List.filter_map
      (fun (name, v) ->
        match v with
        | Json.Obj fields ->
          let int k = match List.assoc_opt k fields with Some (Json.Int i) -> i | _ -> 0 in
          Some (name, (int "calls", int "alloc_bytes", int "ns"))
        | _ -> None)
      rows
  | _ -> []

(* Values only a traced run has: in-program probe times (inclusive: their
   nesting is not static) and the benchmark's own spans (self times). *)
let traced_layers p ~ops ~wall_s =
  let probes = probe_table p in
  let probe name = Option.value (List.assoc_opt name probes) ~default:(0, 0, 0) in
  let incl names = List.fold_left (fun acc n -> let _, _, ns = probe n in acc +. (float_of_int ns /. 1e9)) 0.0 names in
  let alloc_kb names =
    let b = List.fold_left (fun acc n -> let _, a, _ = probe n in acc + a) 0 names in
    fdiv (float_of_int b /. 1024.0) (float_of_int ops)
  in
  let dispatches, _, _ = probe "engine.dispatch" in
  let fs_calls =
    Array.fold_left (fun acc i -> acc + Span.calls ("fs." ^ i)) 0 Systems.impl_names
  in
  [
    ("sim.events_per_op", idiv dispatches ops);
    ("sim.dispatch_incl_s", incl [ "engine.dispatch" ]);
    ("sim.send_incl_s", incl [ "engine.send" ]);
    ("bft.handle_incl_s", incl [ "bft.handle" ]);
    ("bft.handle_alloc_kb_per_op", alloc_kb [ "bft.handle" ]);
    ("bft.execute_incl_s", incl [ "bft.execute" ]);
    ("crypto.verify_incl_s", incl [ "bft.verify"; "client.verify" ]);
    ("crypto.verify_alloc_kb_per_op", alloc_kb [ "bft.verify"; "client.verify" ]);
    ("codec.seal_incl_s", incl [ "bft.seal"; "client.seal" ]);
    ("codec.seal_alloc_kb_per_op", alloc_kb [ "bft.seal"; "client.seal" ]);
    ("core.modify_self_s", Span.self_s "core.modify");
    ("wrapper.execute_self_s", Span.self_s "wrapper.execute");
    ("wrapper.get_obj_self_s", Span.self_s "wrapper.get_obj");
    ("wrapper.put_objs_self_s", Span.self_s "wrapper.put_objs");
    ("wrapper.nondet_self_s", Span.self_s "wrapper.nondet");
    ("wrapper.restart_self_s", Span.self_s "wrapper.restart");
    ("wrapper.route_self_s", Span.self_s "wrapper.route");
    ("wrapper.get_obj_calls", float_of_int (Span.calls "wrapper.get_obj"));
    ("fs.inode.busy_s", Span.self_s "fs.inode");
    ("fs.hash.busy_s", Span.self_s "fs.hash");
    ("fs.log.busy_s", Span.self_s "fs.log");
    ("fs.btree.busy_s", Span.self_s "fs.btree");
    ("fs.calls", float_of_int fs_calls);
    ("load.gen_self_s", Span.self_s "load.gen");
    ("unattributed_s", wall_s -. Span.total_self_s ());
  ]

(* Instrumentation for one iteration: spans, the size_of capture and an
   enabled profile on a traced run; nothing but [observe] on a plain one. *)
let opts_for mode ~observe =
  match mode with
  | Plain -> { Builders.plain with Builders.observe }
  | Traced ->
    let profile = Profile.create ~now_ns:Monotonic_clock.now () in
    Profile.enable profile;
    { Builders.trace = Some { Builders.capture = Builders.new_capture (); profile }; observe }

(* Start of the measured phase: zero everything set-up touched. *)
let arm (opts : Builders.opts) =
  Span.reset ();
  match opts.Builders.trace with
  | Some t ->
    Profile.reset t.Builders.profile;
    let c = t.Builders.capture in
    c.Builders.sends <- 0;
    c.Builders.samples <- [];
    c.Builders.n_samples <- 0
  | None -> ()

let traced_layers_of (opts : Builders.opts) ~ops ~wall_s =
  match opts.Builders.trace with
  | Some t -> traced_layers t.Builders.profile ~ops ~wall_s
  | None -> []

let capture_of (opts : Builders.opts) = Option.map (fun t -> t.Builders.capture) opts.Builders.trace

(* Run [f] as the measured phase: wall time, allocation and GC counts. *)
let measured f =
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = wall () in
  let v = f () in
  let wall_s = wall () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  let g1 = Gc.quick_stat () in
  (v, wall_s, alloc, g1.Gc.minor_collections - g0.Gc.minor_collections,
   g1.Gc.major_collections - g0.Gc.major_collections)

let settle rt ~sec = Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec sec)) (Runtime.engine rt)

(* ===== open-loop workloads over the registers service ======================== *)

type openloop = {
  shards : int;
  batch_max : int;
  rate : float;  (** offered arrivals per virtual second *)
  duration_us : int;  (** injection window *)
  read_frac : float;
  ro_path : bool;  (** issue reads on the read-only fast path *)
  crash : bool;  (** crash the view-0 primary during the run *)
}

let ol_objects = 256

let ol_pool = 256

(* The view-0 primary crashes as the load starts and stays down long enough
   that the backups' view-change timer (client timeout 150 ms plus
   view-change timeout 500 ms) fires while it is down. *)
let crash_plan = "at 0us crash 0\nat 1s reboot 0"

(* The generated inputs of one iteration: arrival [i] reads or writes oid
   [oids.(i)]; a write stores ["v<i>"]. *)
type ol_inputs = {
  oids : int array;
  reads : bool array;
  ops : string array;
}

let ol_inputs cfg ~seed =
  let n = int_of_float (cfg.rate *. float_of_int cfg.duration_us /. 1e6 *. 1.25) + 1000 in
  let rng = Prng.create seed in
  let oids = Array.init n (fun _ -> Prng.int rng ol_objects) in
  let reads = Array.init n (fun _ -> Prng.bernoulli rng cfg.read_frac) in
  let ops =
    Array.init n (fun i ->
        if reads.(i) then Printf.sprintf "get:%d" oids.(i) else Printf.sprintf "set:%d:v%d" oids.(i) i)
  in
  { oids; reads; ops }

(* Every register holds either its initial value or a value some generated
   write stored into that very register. *)
let slots_valid inp slots =
  let ok = ref true in
  Array.iteri
    (fun o v ->
      if v <> "" then
        match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
        | Some k when v.[0] = 'v' && k < Array.length inp.oids ->
          if inp.reads.(k) || inp.oids.(k) <> o then ok := false
        | Some _ | None -> ok := false)
    slots;
  !ok

let openloop cfg mode ~seed =
  let inp = ol_inputs cfg ~seed:(Int64.add seed 1L) in
  let n_in = Array.length inp.ops in
  let rt_cell = ref None in
  let crash_time = ref Int64.max_int in
  let resumed = ref None in
  let observe =
    if not cfg.crash then None
    else
      Some
        (fun rid operation ->
          match !rt_cell with
          | Some rt when rid <> 0 && !resumed = None && String.starts_with ~prefix:"set:" operation ->
            let now = Runtime.now rt in
            if Int64.compare now !crash_time > 0
               && Replica.view (Runtime.replica rt rid).Runtime.replica > 0
            then resumed := Some (Int64.sub now !crash_time)
          | Some _ | None -> ())
  in
  let opts = opts_for mode ~observe in
  Gc.full_major ();
  let t0 = wall () in
  let rt, slots =
    match (mode, observe) with
    | Plain, None ->
      let sys =
        Systems.make_registers ~seed ~n_clients:ol_pool ~n_objects:ol_objects
          ~checkpoint_period:128 ~batch_max:cfg.batch_max ~max_inflight:1 ~shards:cfg.shards ()
      in
      (sys.Systems.reg_runtime, sys.Systems.slots)
    | (Plain | Traced), _ ->
      Builders.registers opts ~seed ~checkpoint_period:128 ~n_objects:ol_objects
        ~n_clients:ol_pool ~shards:cfg.shards ~batch_max:cfg.batch_max ~max_inflight:1
  in
  rt_cell := Some rt;
  (* Warm-up: one read per pool client, so every client/replica session key
     and HMAC midstate exists before the clock starts. *)
  for c = 0 to ol_pool - 1 do
    Runtime.invoke rt ~client:c ~read_only:cfg.ro_path
      ~operation:(Printf.sprintf "get:%d" (c mod ol_objects))
      (fun _ -> ())
  done;
  Runtime.run_until_idle rt;
  let setup_s = wall () -. t0 in
  let load_seed = Int64.add seed 2L in
  let gen = Span.make "load.gen" in
  let wrap f = if mode = Traced then fun i -> Span.wrap gen (fun () -> f i) else f in
  let operation =
    wrap (fun i -> if i < n_in then inp.ops.(i) else Printf.sprintf "get:%d" (i mod ol_objects))
  in
  let read_only = wrap (fun i -> cfg.ro_path && i < n_in && inp.reads.(i)) in
  arm opts;
  let run, wall_s, alloc, minor, major =
    measured (fun () ->
        if cfg.crash then begin
          crash_time := Runtime.now rt;
          match Base_sim.Faultplan.parse crash_plan with
          | Ok plan -> Runtime.apply_faultplan rt plan
          | Error e -> failwith e
        end;
        let load =
          Load.create ~seed:load_seed ~arrivals:Load.Poisson ~operation ~read_only
            ~rate_per_s:cfg.rate ~duration_us:cfg.duration_us rt
        in
        (load, Load.run load))
  in
  let layers_traced =
    traced_layers_of opts ~ops:(max 1 (Load.stats (fst run)).Load.completed) ~wall_s
  in
  let load, outcome = run in
  let s = Load.stats load in
  settle rt ~sec:0.5;
  let errors = ref [] in
  let check name ok = if not ok then errors := name :: !errors in
  check
    (match outcome with Ok () -> "load.run" | Error e -> "load.run: " ^ e)
    (Result.is_ok outcome);
  check "offered = completed + shed" (s.Load.offered = s.Load.completed + s.Load.shed);
  check "no request shed" (s.Load.shed = 0);
  let n = (Runtime.config rt).Types.n in
  let rs = roots rt ~rids:(List.init n Fun.id) in
  check "replica roots agree" (roots_agree rs);
  check "registers hold written values"
    (Array.for_all (fun i -> slots_valid inp slots.(i)) (Array.init n Fun.id));
  if not cfg.crash then check "no rejected messages" (rejected rt = 0);
  let outage_ms =
    match !resumed with Some us -> Int64.to_float us /. 1e3 | None -> 0.0
  in
  if cfg.crash then check "service resumed after the crash" (!resumed <> None);
  let ops = s.Load.completed in
  let reads_done = ref 0 in
  for i = 0 to min s.Load.offered n_in - 1 do
    if inp.reads.(i) then incr reads_done
  done;
  let layers =
    if mode = Plain then []
    else
      layers_traced
      @ stat_layers rt ~ops:(max 1 ops)
          ~ro_ops:(if cfg.ro_path then !reads_done else 0)
          ~writes:(s.Load.offered - !reads_done) ~minor ~major
          ~load:(s.Load.offered, s.Load.completed, s.Load.shed, s.Load.backlog_peak)
  in
  let tot = Engine.total_counters (Runtime.engine rt) in
  let p50 = quantile s.Load.latency_us 0.5 and p99 = quantile s.Load.latency_us 0.99 in
  {
    setup_s;
    wall_s;
    alloc_bytes = alloc;
    peak_heap_mb = heap_mb ();
    attempted = s.Load.offered;
    completed = ops;
    failed = s.Load.offered - s.Load.completed + if Result.is_ok outcome then 0 else 1;
    p50_us = p50;
    p99_us = p99;
    samples = Metrics.hist_count s.Load.latency_us;
    tput_per_s = Load.throughput_per_s load;
    extra =
      [ ("failed_frac", idiv (s.Load.offered - s.Load.completed) s.Load.offered) ]
      @ (if cfg.crash then [ ("outage_ms", outage_ms) ] else []);
    errors = List.rev !errors;
    fingerprint =
      Printf.sprintf "completed=%d shed=%d sent=%d/%d p50=%.3f p99=%.3f roots=%s" ops
        s.Load.shed tot.Engine.sent_msgs tot.Engine.sent_bytes p50 p99 (roots_hex rs);
    layers;
    capture = capture_of opts;
    n_principals = (Runtime.config rt).Types.n_principals;
    n_replicas = n;
  }

(* ===== andrew: the scaled Andrew run over heterogeneous BASE-FS ============= *)

(* Scale 5 (1542 NFS operations) keeps an iteration near a second of wall
   time; the recovery period (one reboot every 200 ms, staggered over the
   four replicas) puts at least two episodes per replica inside every run. *)
let andrew_scale = 5

let andrew_objects = 1024

let andrew_checkpoint_period = 64

let andrew_recovery_period_us = 800_000

let andrew_reboot_us = 30_000

(* A file-system face that records each call's virtual latency and every
   byte a read returns; [ro] counts the calls NFS issues read-only. *)
type recorder = {
  mutable lat_us : float list;
  mutable reads_seen : string list;  (** newest first *)
  mutable ro : int;
  mutable rw : int;
}

let recording (fs : Fs_iface.t) rc : Fs_iface.t =
  let timed ro f =
    let t0 = fs.Fs_iface.elapsed_s () in
    let v = f () in
    rc.lat_us <- ((fs.Fs_iface.elapsed_s () -. t0) *. 1e6) :: rc.lat_us;
    if ro then rc.ro <- rc.ro + 1 else rc.rw <- rc.rw + 1;
    v
  in
  {
    fs with
    Fs_iface.mkdir = (fun ~dir ~name -> timed false (fun () -> fs.Fs_iface.mkdir ~dir ~name));
    create = (fun ~dir ~name -> timed false (fun () -> fs.Fs_iface.create ~dir ~name));
    write = (fun ~fh ~off ~data -> timed false (fun () -> fs.Fs_iface.write ~fh ~off ~data));
    read =
      (fun ~fh ~off ~count ->
        let d = timed true (fun () -> fs.Fs_iface.read ~fh ~off ~count) in
        rc.reads_seen <- d :: rc.reads_seen;
        d);
    size_of = (fun ~fh -> timed true (fun () -> fs.Fs_iface.size_of ~fh));
    lookup = (fun ~dir ~name -> timed true (fun () -> fs.Fs_iface.lookup ~dir ~name));
    readdir = (fun ~dir -> timed true (fun () -> fs.Fs_iface.readdir ~dir));
    remove = (fun ~dir ~name -> timed false (fun () -> fs.Fs_iface.remove ~dir ~name));
  }

let new_recorder () = { lat_us = []; reads_seen = []; ro = 0; rw = 0 }

(* The single-node baseline: the unwrapped inode file system, unreplicated,
   at the same scale.  Deterministic, so computed once per process. *)
type baseline = { base_seconds : float; base_reads : string list }

let andrew_baseline () =
  let rc = new_recorder () in
  let raw = Systems.make_direct ~impl:"inode" () in
  let r = Andrew.run ~scale:andrew_scale (recording (Fs_iface.of_direct raw) rc) in
  { base_seconds = r.Andrew.total_seconds; base_reads = rc.reads_seen }

let andrew base mode ~seed =
  let opts = opts_for mode ~observe:None in
  Gc.full_major ();
  let t0 = wall () in
  let rt =
    match mode with
    | Plain ->
      (Systems.make_basefs ~seed ~hetero:true ~checkpoint_period:andrew_checkpoint_period
         ~n_objects:andrew_objects ~n_clients:1 ())
        .Systems.runtime
    | Traced ->
      Builders.basefs opts ~seed ~checkpoint_period:andrew_checkpoint_period
        ~n_objects:andrew_objects ~n_clients:1
  in
  (* Warm-up: one getattr of the root through the whole stack. *)
  let warm = Fs_iface.of_runtime ~client:0 rt in
  ignore (warm.Fs_iface.size_of ~fh:warm.Fs_iface.root);
  let setup_s = wall () -. t0 in
  Runtime.enable_proactive_recovery ~reboot_us:andrew_reboot_us
    ~period_us:andrew_recovery_period_us rt;
  let rc = new_recorder () in
  let fs = recording (Fs_iface.of_runtime ~client:0 rt) rc in
  arm opts;
  let run, wall_s, alloc, minor, major =
    measured (fun () ->
        match Andrew.run ~scale:andrew_scale fs with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let ops = rc.ro + rc.rw in
  let layers_traced = traced_layers_of opts ~ops:(max 1 ops) ~wall_s in
  (* Let in-flight recovery episodes close before reading timelines. *)
  Runtime.disable_proactive_recovery rt;
  settle rt ~sec:1.0;
  let errors = ref [] in
  let check name ok = if not ok then errors := name :: !errors in
  (match run with Ok _ -> () | Error e -> check ("andrew.run: " ^ e) false);
  check "every read returns the bytes the baseline read"
    (List.equal String.equal rc.reads_seen base.base_reads);
  let n = (Runtime.config rt).Types.n in
  let rs = roots rt ~rids:(List.init n Fun.id) in
  check "replica roots agree" (roots_agree rs);
  let episodes = Runtime.recovery_timelines rt in
  let windows = List.filter_map Runtime.timeline_window_us episodes in
  let per_rid rid =
    List.length
      (List.filter
         (fun tl -> tl.Runtime.tl_rid = rid && Runtime.timeline_window_us tl <> None)
         episodes)
  in
  check "at least two recovery episodes per replica"
    (List.for_all (fun rid -> per_rid rid >= 2) (List.init n Fun.id));
  let total_s = match run with Ok r -> r.Andrew.total_seconds | Error _ -> 0.0 in
  let lat = Array.of_list (List.map Float.round rc.lat_us) in
  Array.sort Float.compare lat;
  let p50 = grouped_quantile lat 0.5 and p99 = grouped_quantile lat 0.99 in
  let layers =
    if mode = Plain then []
    else
      layers_traced
      @ stat_layers rt ~ops:(max 1 ops) ~ro_ops:rc.ro ~writes:rc.rw ~minor ~major
          ~load:(ops, ops, 0, 0)
  in
  let tot = Engine.total_counters (Runtime.engine rt) in
  let mean l = idiv (List.fold_left ( + ) 0 l) (List.length l) in
  {
    setup_s;
    wall_s;
    alloc_bytes = alloc;
    peak_heap_mb = heap_mb ();
    attempted = ops;
    completed = (match run with Ok _ -> ops | Error _ -> max 0 (ops - 1));
    failed = (match run with Ok _ -> 0 | Error _ -> 1);
    p50_us = p50;
    p99_us = p99;
    samples = Array.length lat;
    tput_per_s = fdiv (float_of_int ops) total_s;
    extra =
      [
        ("failed_frac", match run with Ok _ -> 0.0 | Error _ -> idiv 1 (max 1 ops));
        ("overhead_pct", 100.0 *. (fdiv total_s base.base_seconds -. 1.0));
        ("recovery_window_ms", mean windows /. 1e3);
      ];
    errors = List.rev !errors;
    fingerprint =
      Printf.sprintf "ops=%d sent=%d/%d total=%.6f p50=%.3f p99=%.3f windows=%s roots=%s" ops
        tot.Engine.sent_msgs tot.Engine.sent_bytes total_s p50 p99
        (String.concat "," (List.map string_of_int windows))
        (roots_hex rs);
    layers;
    capture = capture_of opts;
    n_principals = (Runtime.config rt).Types.n_principals;
    n_replicas = n;
  }
