(* Shared test scaffolding: a tiny deterministic key-value service wrapped
   for BASE, used to exercise the replication stack without the NFS layer,
   and the one way a qcheck property becomes an Alcotest case. *)

(* [prop] over [count] values drawn from [gen]; [print] shows a
   counterexample. *)
let qtest ?(count = 300) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

module Service = Base_core.Service

(* A register array service: operations "set:<i>:<value>" and "get:<i>".
   Keeps a timestamp per slot fed from the agreed nondet value, exactly like
   the NFS wrapper does for time-last-modified. *)
type kv = { slots : string array; stamps : int64 array; mutable restarts : int }

let kv_wrapper ?(n_objects = 8) () =
  let kv =
    { slots = Array.make n_objects ""; stamps = Array.make n_objects 0L; restarts = 0 }
  in
  let parse op = String.split_on_char ':' op in
  let execute ~client:_ ~operation ~nondet ~read_only:_ ~modify =
    match parse operation with
    | [ "set"; i; v ] ->
      let i = int_of_string i in
      modify i;
      kv.slots.(i) <- v;
      kv.stamps.(i) <- Service.clock_of_nondet nondet;
      "ok"
    | [ "get"; i ] ->
      let i = int_of_string i in
      Printf.sprintf "%s@%Ld" kv.slots.(i) kv.stamps.(i)
    | _ -> "bad-op"
  in
  let get_obj i =
    let e = Base_codec.Xdr.encoder () in
    Base_codec.Xdr.str e kv.slots.(i);
    Base_codec.Xdr.i64 e kv.stamps.(i);
    Base_codec.Xdr.contents e
  in
  let put_objs objs =
    List.iter
      (fun (i, data) ->
        let d = Base_codec.Xdr.decoder data in
        kv.slots.(i) <- Base_codec.Xdr.read_str d;
        kv.stamps.(i) <- Base_codec.Xdr.read_i64 d)
      objs
  in
  ( kv,
    {
      Service.name = "kv";
      n_objects;
      execute;
      get_obj;
      put_objs;
      restart = (fun () -> kv.restarts <- kv.restarts + 1);
      propose_nondet = (fun ~clock_us ~operation:_ -> Service.nondet_of_clock clock_us);
      check_nondet =
        (fun ~clock_us ~operation:_ ~nondet ->
          Service.default_check_nondet ~max_skew_us:2_000_000L ~clock_us ~nondet);
      oids_of_op = Service.no_footprint;
    } )

let make_system ?(seed = 1L) ?(f = 1) ?(n_clients = 1) ?(checkpoint_period = 16)
    ?(drop_p = 0.0) ?batch_max ?max_inflight ?client_timeout_us ?viewchange_timeout_us
    ?standbys () =
  let config =
    Base_bft.Types.make_config ~checkpoint_period ~log_window:(checkpoint_period * 2)
      ?batch_max ?max_inflight ?client_timeout_us ?viewchange_timeout_us ?standbys ~f
      ~n_clients ()
  in
  let engine_config = Base_core.Runtime.engine_config ~seed ~drop_p () in
  let kvs =
    Array.init (Base_bft.Types.group_size config) (fun _ -> None)
  in
  let make_wrapper rid =
    let kv, w = kv_wrapper () in
    kvs.(rid) <- Some kv;
    w
  in
  let sys = Base_core.Runtime.create ~engine_config ~config ~make_wrapper ~n_clients () in
  let kvs = Array.map Option.get kvs in
  (sys, kvs)

let set sys ~client i v =
  Base_core.Runtime.invoke_sync sys ~client ~operation:(Printf.sprintf "set:%d:%s" i v) ()

let get sys ~client i =
  Base_core.Runtime.invoke_sync sys ~client ~operation:(Printf.sprintf "get:%d" i) ()

let get_ro sys ~client i =
  Base_core.Runtime.invoke_sync sys ~client ~read_only:true
    ~operation:(Printf.sprintf "get:%d" i) ()

(* Reading a report: an object's fields, one field ([Null] when absent),
   and an integer field (-1 when absent or not an integer). *)
let json_fields = function Base_obs.Json.Obj f -> f | _ -> []

let json_field key o = Option.value ~default:Base_obs.Json.Null (List.assoc_opt key (json_fields o))

let json_int key o = match json_field key o with Base_obs.Json.Int v -> v | _ -> -1

(* The [replicas] entries of [Runtime.metrics_report]. *)
let reported_cells sys =
  match json_field "replicas" (Base_core.Runtime.metrics_report sys) with
  | Base_obs.Json.List cells -> cells
  | _ -> []

(* Field [name] of the report's entry for cell [(shard, rid)]; -1 when the
   report has no such entry. *)
let reported_stat ?(shard = 0) sys rid name =
  match
    List.find_opt
      (fun c -> json_int "rid" c = rid && json_int "shard" c = shard)
      (reported_cells sys)
  with
  | Some c -> json_int name c
  | None -> -1

let value_part reply =
  match String.index_opt reply '@' with
  | Some k -> String.sub reply 0 k
  | None -> reply

(* A transport that goes nowhere: sends are dropped and timers never fire. *)
let silent_net =
  {
    Base_bft.Message.send = (fun ~dst:_ _ -> ());
    set_timer = (fun ~after_us:_ _ -> 0);
    cancel_timer = (fun _ -> ());
    now_us = (fun () -> 0L);
  }

(* Replica [id] of [config] outside any runtime, on [net] ({!silent_net}
   by default).  Its service answers "ok" to everything and passes each
   upcall's [read_only] flag and [operation] to [on_execute] first; nothing
   it checkpoints carries state. *)
let bare_replica ?(net = silent_net) ?(on_execute = fun ~read_only:_ _ -> ()) ~config ~chains
    id =
  let app =
    {
      Base_bft.Replica.execute =
        (fun ~client:_ ~timestamp:_ ~operation ~nondet:_ ~read_only ->
          on_execute ~read_only operation;
          "ok");
      propose_nondet = (fun ~operation:_ -> "");
      check_nondet = (fun ~operation:_ ~nondet:_ -> true);
      ready = Base_bft.Replica.always_ready;
      take_checkpoint = (fun ~seq:_ ~client_rows:_ -> Base_crypto.Digest_t.zero);
      discard_checkpoints_below = (fun _ -> ());
      start_fetch = (fun ~seq:_ ~digest:_ -> ());
    }
  in
  Base_bft.Replica.create ~config ~id ~keychain:chains.(id) ~net ~app ()

(* The standby with node id [id] (in [n .. n+s-1]) of a running system. *)
let standby sys id =
  List.find
    (fun (c : Base_core.Runtime.replica_node) -> c.Base_core.Runtime.rid = id)
    (Base_core.Runtime.all_cells sys)
