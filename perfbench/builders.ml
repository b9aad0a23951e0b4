(* Instrumented deployments.

   [basefs] and [registers] build the same systems as
   [Systems.make_basefs] / [Systems.make_registers] (same configuration,
   same engine configuration, same per-replica seeds), but every closure
   handed to [Runtime.create] can be wrapped:

   - the file-system implementation's entry points, in an [fs.<impl>] span;
   - the service wrapper's upcalls, in [wrapper.*] spans, and the [modify]
     callback the runtime passes to [execute], in a [core.modify] span;
   - the engine's [size_of] hook, which counts every send and keeps a
     deterministic sample of the protocol envelopes for the codec/crypto
     replay.

   Wrapping changes no value any closure returns, so an instrumented
   deployment must behave exactly like the plain one; the benchmark checks
   that on every traced run (same virtual metrics, same abstract roots). *)

module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Types = Base_bft.Types
module Service = Base_core.Service
module Message = Base_bft.Message
module Systems = Base_workload.Systems
module S = Base_fs.Server_intf

(* --- the size_of hook ---------------------------------------------------- *)

type sample = {
  s_sender : int;
  s_shard : int;
  s_body : Message.body;
  s_wire : string;
}

type capture = {
  mutable sends : int;
  mutable samples : sample list;
  mutable n_samples : int;
}

let sample_every = 53

let sample_cap = 3000

let new_capture () = { sends = 0; samples = []; n_samples = 0 }

let size_hook cap msg =
  cap.sends <- cap.sends + 1;
  (match msg with
  | Runtime.Bft env when cap.sends mod sample_every = 0 && cap.n_samples < sample_cap ->
    cap.samples <-
      {
        s_sender = env.Message.sender;
        s_shard = env.Message.shard;
        s_body = env.Message.body;
        s_wire = env.Message.wire;
      }
      :: cap.samples;
    cap.n_samples <- cap.n_samples + 1
  | Runtime.Bft _ | Runtime.St _ | Runtime.Raw _ -> ());
  Runtime.msg_size msg

let engine_config ~seed ~capture =
  let size_of = match capture with Some c -> size_hook c | None -> Runtime.msg_size in
  let base = Engine.default_config ~size_of ~label_of:Runtime.msg_label in
  { base with Engine.seed; kind_of = Runtime.msg_kind }

(* --- closure wrappers ---------------------------------------------------- *)

let instrument_fs name (srv : S.t) : S.t =
  let sp = Span.make ("fs." ^ name) in
  let w f = Span.wrap sp f in
  {
    srv with
    S.root = (fun () -> w (fun () -> srv.S.root ()));
    lookup = (fun ~dir ~name -> w (fun () -> srv.S.lookup ~dir ~name));
    getattr = (fun ~fh -> w (fun () -> srv.S.getattr ~fh));
    setattr = (fun ~fh a -> w (fun () -> srv.S.setattr ~fh a));
    read = (fun ~fh ~off ~count -> w (fun () -> srv.S.read ~fh ~off ~count));
    write = (fun ~fh ~off ~data -> w (fun () -> srv.S.write ~fh ~off ~data));
    create =
      (fun ~dir ~name ~mode ~uid ~gid -> w (fun () -> srv.S.create ~dir ~name ~mode ~uid ~gid));
    mkdir =
      (fun ~dir ~name ~mode ~uid ~gid -> w (fun () -> srv.S.mkdir ~dir ~name ~mode ~uid ~gid));
    symlink =
      (fun ~dir ~name ~target ~mode ~uid ~gid ->
        w (fun () -> srv.S.symlink ~dir ~name ~target ~mode ~uid ~gid));
    readlink = (fun ~fh -> w (fun () -> srv.S.readlink ~fh));
    remove = (fun ~dir ~name -> w (fun () -> srv.S.remove ~dir ~name));
    rmdir = (fun ~dir ~name -> w (fun () -> srv.S.rmdir ~dir ~name));
    rename =
      (fun ~sdir ~sname ~ddir ~dname -> w (fun () -> srv.S.rename ~sdir ~sname ~ddir ~dname));
    readdir = (fun ~dir -> w (fun () -> srv.S.readdir ~dir));
    identity = (fun ~fh -> w (fun () -> srv.S.identity ~fh));
    restart = (fun () -> w (fun () -> srv.S.restart ()));
  }

let sp_execute = Span.make "wrapper.execute"

let sp_get_obj = Span.make "wrapper.get_obj"

let sp_put_objs = Span.make "wrapper.put_objs"

let sp_nondet = Span.make "wrapper.nondet"

let sp_restart = Span.make "wrapper.restart"

let sp_route = Span.make "wrapper.route"

let sp_modify = Span.make "core.modify"

let instrument_wrapper (w : Service.wrapper) : Service.wrapper =
  {
    w with
    Service.execute =
      (fun ~client ~operation ~nondet ~read_only ~modify ->
        let modify i = Span.wrap sp_modify (fun () -> modify i) in
        Span.wrap sp_execute (fun () -> w.Service.execute ~client ~operation ~nondet ~read_only ~modify));
    get_obj = (fun i -> Span.wrap sp_get_obj (fun () -> w.Service.get_obj i));
    put_objs = (fun objs -> Span.wrap sp_put_objs (fun () -> w.Service.put_objs objs));
    restart = (fun () -> Span.wrap sp_restart (fun () -> w.Service.restart ()));
    propose_nondet =
      (fun ~clock_us ~operation ->
        Span.wrap sp_nondet (fun () -> w.Service.propose_nondet ~clock_us ~operation));
    check_nondet =
      (fun ~clock_us ~operation ~nondet ->
        Span.wrap sp_nondet (fun () -> w.Service.check_nondet ~clock_us ~operation ~nondet));
    oids_of_op = (fun ~operation -> Span.wrap sp_route (fun () -> w.Service.oids_of_op ~operation));
  }

(* [observe rid operation] runs before replica [rid] executes [operation]:
   the hook the crash workload uses to see when service resumes. *)
let observing observe rid (w : Service.wrapper) : Service.wrapper =
  match observe with
  | None -> w
  | Some f ->
    {
      w with
      Service.execute =
        (fun ~client ~operation ~nondet ~read_only ~modify ->
          f rid operation;
          w.Service.execute ~client ~operation ~nondet ~read_only ~modify);
    }

(* --- deployments --------------------------------------------------------- *)

(* What a traced deployment records into. *)
type trace = {
  capture : capture;  (** every send, through [size_of] *)
  profile : Base_obs.Profile.t;  (** the in-program probes, enabled *)
}

type opts = {
  trace : trace option;  (** [Some]: wrap the layer closures in spans too *)
  observe : (int -> string -> unit) option;
}

let plain = { trace = None; observe = None }

let instrumented opts f w = match opts.trace with Some _ -> f w | None -> w

let runtime_create opts ~seed ~config ~make_wrapper ~n_clients =
  let capture = Option.map (fun t -> t.capture) opts.trace in
  let profile = Option.map (fun t -> t.profile) opts.trace in
  Runtime.create ~engine_config:(engine_config ~seed ~capture) ?profile ~config ~make_wrapper
    ~n_clients ()

(* Mirrors [Systems.make_basefs ~hetero:true] with f = 1. *)
let basefs opts ~seed ~checkpoint_period ~n_objects ~n_clients =
  let config =
    Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ~f:1 ~n_clients ()
  in
  let engine_cell = ref None in
  let make_wrapper rid =
    let name = Systems.impl_names.(rid mod Array.length Systems.impl_names) in
    let now () =
      match !engine_cell with Some engine -> Engine.local_clock engine rid | None -> 0L
    in
    let server = Systems.make_impl name ~seed:(Int64.add seed (Int64.of_int (100 + rid))) ~now in
    let server = instrumented opts (instrument_fs name) server in
    let w = Base_wrapper.Conformance.make ~server ~n_objects () in
    observing opts.observe rid (instrumented opts instrument_wrapper w)
  in
  let rt = runtime_create opts ~seed ~config ~make_wrapper ~n_clients in
  engine_cell := Some (Runtime.engine rt);
  rt

(* Mirrors [Systems.make_registers]; returns the runtime and the concrete
   register slots of every replica. *)
let registers opts ~seed ~checkpoint_period ~n_objects ~n_clients ~shards ~batch_max
    ~max_inflight =
  let shard_bounds = if shards <= 1 then [||] else Types.uniform_shards ~shards ~n_objects in
  let config =
    Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ~shard_bounds
      ~batch_max ~max_inflight ~f:1 ~n_clients ()
  in
  let slots = Array.init (Types.group_size config) (fun _ -> Array.make n_objects "") in
  let make_wrapper rid =
    let w = Systems.registers_wrapper ~n_objects slots.(rid) in
    observing opts.observe rid (instrumented opts instrument_wrapper w)
  in
  (runtime_create opts ~seed ~config ~make_wrapper ~n_clients, slots)
