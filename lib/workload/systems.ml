(** Builders for complete replicated file-service deployments (BASE-FS) and
    for the unreplicated off-the-shelf baseline they are compared against. *)

module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Types = Base_bft.Types
module Service = Base_core.Service
module S = Base_fs.Server_intf

let impl_names = [| "inode"; "hash"; "log"; "btree"; "fat" |]

let make_impl name ~seed ~now : S.t =
  match name with
  | "inode" -> Base_fs.Fs_inode.create (Base_fs.Fs_inode.make ~seed ~now)
  | "hash" -> Base_fs.Fs_hash.create (Base_fs.Fs_hash.make ~seed ~now)
  | "log" -> Base_fs.Fs_log.create (Base_fs.Fs_log.make ~seed ~now)
  | "btree" -> Base_fs.Fs_btree.create (Base_fs.Fs_btree.make ~seed ~now)
  | "fat" -> Base_fs.Fs_fat.create (Base_fs.Fs_fat.make ~seed ~now)
  | other -> invalid_arg ("Systems.make_impl: unknown implementation " ^ other)

type basefs = {
  runtime : Runtime.t;
  servers : S.t array;  (** the wrapped off-the-shelf implementations *)
  impl_of : string array;  (** implementation name per replica *)
}

(** [make_basefs ~hetero ...] builds an n=3f+1 BASE-FS deployment.  With
    [hetero = true] each replica runs a different implementation
    (opportunistic N-version programming); otherwise all replicas run
    [homogeneous_impl] (default "hash", the one with the latent bug). *)
let make_basefs ?(seed = 1L) ?(f = 1) ?(checkpoint_period = 64) ?(n_objects = 512)
    ?(n_clients = 1) ?(homogeneous_impl = "hash") ?drop_p ?batch_max ?max_inflight
    ?client_timeout_us ?viewchange_timeout_us ?st_window ?st_cache_objs ?standbys ?profile
    ~hetero () =
  let config =
    Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ?batch_max
      ?max_inflight ?client_timeout_us ?viewchange_timeout_us ?st_window ?st_cache_objs
      ?standbys ~f ~n_clients ()
  in
  let engine_config =
    let base =
      Engine.default_config ~size_of:Runtime.msg_size ~label_of:Runtime.msg_label
    in
    {
      base with
      seed;
      drop_p = Option.value drop_p ~default:base.drop_p;
      kind_of = Runtime.msg_kind;
    }
  in
  (* Warm standbys run a wrapped implementation of their own, so the server
     and implementation-name tables cover the whole n+s group. *)
  let group = Types.group_size config in
  let servers = Array.make group None in
  let impl_of = Array.make group "" in
  (* The implementations read their replica's local (skewed, drifting)
     clock; the engine does not exist until Runtime.create runs, so route
     through a cell.  During construction the clock reads zero, which only
     affects concrete timestamps that the wrapper masks anyway. *)
  let engine_cell = ref None in
  let make_wrapper rid =
    let name = if hetero then impl_names.(rid mod Array.length impl_names) else homogeneous_impl in
    impl_of.(rid) <- name;
    let now () =
      match !engine_cell with
      | Some engine -> Engine.local_clock engine rid
      | None -> 0L
    in
    let server = make_impl name ~seed:(Int64.add seed (Int64.of_int (100 + rid))) ~now in
    servers.(rid) <- Some server;
    Base_wrapper.Conformance.make ~server ~n_objects ()
  in
  let runtime = Runtime.create ~engine_config ?profile ~config ~make_wrapper ~n_clients () in
  engine_cell := Some (Runtime.engine runtime);
  { runtime; servers = Array.map Option.get servers; impl_of }

(** A deterministic register-array service: the lightest replicated system
    the runtime can host, used by the saturation benchmarks (E15) and the
    batching-equivalence property test.  Unlike the test kv service and the
    NFS wrapper it is {e stamp-free} — no agreed clock value enters the
    state — so the abstract-state digest after a workload is a function of
    the writes alone, identical across batch sizes, pipelining windows and
    schedules.  Operations: ["set:<i>:<v>"] -> ["ok"], ["get:<i>"] -> the
    slot's value. *)
type registers = {
  reg_runtime : Runtime.t;
  slots : string array array;  (** concrete state, per replica *)
}

let registers_wrapper ~n_objects slots : Service.wrapper =
  let execute ~client:_ ~operation ~nondet:_ ~read_only:_ ~modify =
    match String.split_on_char ':' operation with
    | [ "set"; i; v ] ->
      let i = int_of_string i in
      modify i;
      slots.(i) <- v;
      "ok"
    | [ "get"; i ] -> slots.(int_of_string i)
    | _ -> "bad-op"
  in
  {
    Service.name = "registers";
    n_objects;
    execute;
    get_obj = (fun i -> slots.(i));
    put_objs = (fun objs -> List.iter (fun (i, data) -> slots.(i) <- data) objs);
    restart = (fun () -> ());
    (* Stamp-free: the service consumes no non-determinism, so the primary
       proposes nothing and backups accept exactly that. *)
    propose_nondet = (fun ~clock_us:_ ~operation:_ -> "");
    check_nondet = (fun ~clock_us:_ ~operation:_ ~nondet -> String.equal nondet "");
    (* Both operations name their slot in the second field; that index is
       the whole footprint, which makes the registers service the natural
       conflict-free workload for the shard-scaling bench (E18). *)
    oids_of_op =
      (fun ~operation ->
        match String.split_on_char ':' operation with
        | [ "set"; i; _ ] | [ "get"; i ] -> (
          match int_of_string_opt i with
          | Some i when i >= 0 && i < n_objects -> [ i ]
          | Some _ | None -> [])
        | _ -> []);
  }

let make_registers ?(seed = 1L) ?(f = 1) ?(checkpoint_period = 64) ?(n_objects = 64)
    ?(n_clients = 1) ?(shards = 1) ?drop_p ?batch_max ?max_inflight ?client_timeout_us
    ?viewchange_timeout_us ?standbys ?profile () =
  let shard_bounds =
    if shards <= 1 then [||] else Types.uniform_shards ~shards ~n_objects
  in
  let config =
    Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ~shard_bounds
      ?batch_max ?max_inflight ?client_timeout_us ?viewchange_timeout_us ?standbys ~f
      ~n_clients ()
  in
  let engine_config =
    let base =
      Engine.default_config ~size_of:Runtime.msg_size ~label_of:Runtime.msg_label
    in
    {
      base with
      seed;
      drop_p = Option.value drop_p ~default:base.drop_p;
      kind_of = Runtime.msg_kind;
    }
  in
  let slots = Array.init (Types.group_size config) (fun _ -> Array.make n_objects "") in
  let make_wrapper rid = registers_wrapper ~n_objects slots.(rid) in
  let runtime = Runtime.create ~engine_config ?profile ~config ~make_wrapper ~n_clients () in
  { reg_runtime = runtime; slots }

(** An unreplicated off-the-shelf server used as the comparison baseline:
    direct calls, with network and service time accounted analytically using
    the same constants as the simulator. *)
type direct = {
  server : S.t;
  mutable elapsed_us : float;
  cost : Cost_model.t;
  rtt_us : float;
}

let make_direct ?(seed = 77L) ?(impl = "inode") ?(cost = Cost_model.default) () =
  let clock = ref 0L in
  let now () =
    clock := Int64.add !clock 211L;
    !clock
  in
  let server = make_impl impl ~seed ~now in
  (* Same switched LAN as the simulator's default: 60 us propagation each
     way plus the average exponential jitter. *)
  { server; elapsed_us = 0.0; cost; rtt_us = 2.0 *. (60.0 +. 15.0) }

let direct_charge d ~read_only ~bytes =
  d.elapsed_us <-
    d.elapsed_us +. d.rtt_us
    +. (float_of_int (bytes * 8) /. 100e6 *. 1e6)
    +. Cost_model.op_cost_us d.cost ~read_only ~bytes
