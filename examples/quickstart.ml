(* Quickstart: replicate a tiny service with BASE.

   This example shows the whole library surface in one file:
   - write a conformance wrapper (the Figure 1 upcalls: execute / get_obj /
     put_objs / modify, plus the non-determinism hooks);
   - build a 4-replica system with `Base_core.Runtime.create`;
   - invoke operations through a client.

   The service is a bank of named counters whose "last updated" time comes
   from the agreed timestamps — the canonical non-determinism example.

   Run with: dune exec examples/quickstart.exe *)

module Service = Base_core.Service
module Runtime = Base_core.Runtime
module Xdr = Base_codec.Xdr

let n_objects = 16

(* One abstract object per counter: value + last-update stamp. *)
let make_wrapper _replica_id =
  let values = Array.make n_objects 0 in
  let stamps = Array.make n_objects 0L in
  let execute ~client:_ ~operation ~nondet ~read_only:_ ~modify =
    match String.split_on_char ' ' operation with
    | [ "add"; i; d ] ->
      let i = int_of_string i in
      modify i;  (* tell the library before touching abstract object i *)
      values.(i) <- values.(i) + int_of_string d;
      stamps.(i) <- Service.clock_of_nondet nondet;
      string_of_int values.(i)
    | [ "get"; i ] -> string_of_int values.(int_of_string i)
    | _ -> "error"
  in
  let get_obj i =
    let e = Xdr.encoder () in
    Xdr.u32 e values.(i);
    Xdr.i64 e stamps.(i);
    Xdr.contents e
  in
  let put_objs objs =
    List.iter
      (fun (i, data) ->
        let d = Xdr.decoder data in
        values.(i) <- Xdr.read_u32 d;
        stamps.(i) <- Xdr.read_i64 d)
      objs
  in
  {
    Service.name = "counter-bank";
    n_objects;
    execute;
    get_obj;
    put_objs;
    restart = (fun () -> ());
    propose_nondet = (fun ~clock_us ~operation:_ -> Service.nondet_of_clock clock_us);
    check_nondet =
      (fun ~clock_us ~operation:_ ~nondet ->
        Service.default_check_nondet ~max_skew_us:1_000_000L ~clock_us ~nondet);
    oids_of_op = Service.no_footprint;
  }

let () =
  (* f = 1 tolerated fault -> n = 4 replicas. *)
  let config = Base_bft.Types.make_config ~f:1 ~n_clients:1 () in
  let sys = Runtime.create ~config ~make_wrapper ~n_clients:1 () in
  Printf.printf "counter 3 += 5   -> %s\n"
    (Runtime.invoke_sync sys ~client:0 ~operation:"add 3 5" ());
  Printf.printf "counter 3 += 37  -> %s\n"
    (Runtime.invoke_sync sys ~client:0 ~operation:"add 3 37" ());
  Printf.printf "read-only get    -> %s\n"
    (Runtime.invoke_sync sys ~client:0 ~read_only:true ~operation:"get 3" ());
  (* Mute the primary: it still runs, but nothing it sends leaves the node.
     The view change keeps the service available. *)
  Runtime.set_behavior sys 0 Base_sim.Faultplan.B_mute;
  Printf.printf "after primary failure: counter 3 += 1 -> %s\n"
    (Runtime.invoke_sync sys ~client:0 ~operation:"add 3 1" ());
  let replicas = Runtime.replicas sys in
  Array.iter
    (fun node ->
      Printf.printf "replica %d: view=%d executed=%d\n" node.Runtime.rid
        (Base_bft.Replica.view node.Runtime.replica)
        (Base_bft.Replica.stats node.Runtime.replica).Base_bft.Replica.executed)
    replicas
