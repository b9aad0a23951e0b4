(** One file-system face for the workload generators, with two backends:
    the replicated BASE-FS service (operations travel through the whole
    replication stack inside the simulator) and the unreplicated
    off-the-shelf baseline (direct calls, analytically timed).

    Handles are opaque strings; operation service costs from the
    {!Cost_model} are charged identically on both sides. *)

open Base_nfs.Nfs_types
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module S = Base_fs.Server_intf

type t = {
  label : string;
  root : string;
  mkdir : dir:string -> name:string -> string;
  create : dir:string -> name:string -> string;
  write : fh:string -> off:int -> data:string -> unit;
  read : fh:string -> off:int -> count:int -> string;
  size_of : fh:string -> int;
  lookup : dir:string -> name:string -> (string * ftype) option;
  readdir : dir:string -> (string * string) list;
  remove : dir:string -> name:string -> unit;
  think : us:float -> unit;  (** client-side compute between calls *)
  elapsed_s : unit -> float;
  ops : unit -> int;
}

(* --- replicated backend ------------------------------------------------------ *)

let of_runtime ?(cost = Cost_model.default) ~client runtime =
  let fail_err what e = failwith (Printf.sprintf "%s failed: %s" what (err_to_string e)) in
  let oid_to_handle (o : oid) = Printf.sprintf "%d:%d" o.index o.gen in
  let handle_to_oid h =
    match String.split_on_char ':' h with
    | [ i; g ] -> { index = int_of_string i; gen = int_of_string g }
    | _ -> invalid_arg "bad replicated handle"
  in
  let engine = Runtime.engine runtime in
  let started = Engine.now engine in
  let ops = ref 0 in
  let charge ~read_only ~bytes =
    let us = Cost_model.op_cost_us cost ~read_only ~bytes in
    Engine.advance_to engine (Sim_time.add (Engine.now engine) (Sim_time.of_us (int_of_float us)))
  in
  let invoke ~read_only ~operation =
    incr ops;
    let r = Runtime.invoke_sync runtime ~client ~read_only ~operation () in
    charge ~read_only ~bytes:(String.length operation + String.length r);
    r
  in
  let nfs = Base_nfs.Nfs_client.make invoke in
  let module C = Base_nfs.Nfs_client in
  {
    label = "base-fs";
    root = oid_to_handle root_oid;
    mkdir =
      (fun ~dir ~name ->
        match C.mkdir nfs (handle_to_oid dir) name sattr_empty with
        | Ok (o, _) -> oid_to_handle o
        | Error e -> fail_err "mkdir" e);
    create =
      (fun ~dir ~name ->
        match C.create nfs (handle_to_oid dir) name sattr_empty with
        | Ok (o, _) -> oid_to_handle o
        | Error e -> fail_err "create" e);
    write =
      (fun ~fh ~off ~data ->
        match C.write nfs (handle_to_oid fh) ~off data with
        | Ok _ -> ()
        | Error e -> fail_err "write" e);
    read =
      (fun ~fh ~off ~count ->
        match C.read nfs (handle_to_oid fh) ~off ~count with
        | Ok (data, _) -> data
        | Error e -> fail_err "read" e);
    size_of =
      (fun ~fh ->
        match C.getattr nfs (handle_to_oid fh) with
        | Ok a -> a.size
        | Error e -> fail_err "getattr" e);
    lookup =
      (fun ~dir ~name ->
        match C.lookup nfs (handle_to_oid dir) name with
        | Ok (o, a) -> Some (oid_to_handle o, a.ftype)
        | Error Enoent -> None
        | Error e -> fail_err "lookup" e);
    readdir =
      (fun ~dir ->
        match C.readdir nfs (handle_to_oid dir) with
        | Ok entries -> List.map (fun (n, o) -> (n, oid_to_handle o)) entries
        | Error e -> fail_err "readdir" e);
    remove =
      (fun ~dir ~name ->
        match C.remove nfs (handle_to_oid dir) name with
        | Ok () -> ()
        | Error e -> fail_err "remove" e);
    think =
      (fun ~us ->
        Engine.advance_to engine
          (Sim_time.add (Engine.now engine) (Sim_time.of_us (int_of_float us))));
    elapsed_s = (fun () -> Sim_time.to_sec (Sim_time.sub (Engine.now engine) started));
    ops = (fun () -> !ops);
  }

(* --- direct (unreplicated) backend ------------------------------------------- *)

let of_direct (d : Systems.direct) =
  let fail_err what e = failwith (Printf.sprintf "%s failed: %s" what (err_to_string e)) in
  let ops = ref 0 in
  let call ~read_only ~bytes =
    incr ops;
    Systems.direct_charge d ~read_only ~bytes
  in
  let srv = d.Systems.server in
  {
    label = "raw-" ^ srv.S.name;
    root = srv.S.root ();
    mkdir =
      (fun ~dir ~name ->
        call ~read_only:false ~bytes:64;
        match srv.S.mkdir ~dir ~name ~mode:0o755 ~uid:0 ~gid:0 with
        | Ok (fh, _) -> fh
        | Error e -> fail_err "mkdir" e);
    create =
      (fun ~dir ~name ->
        call ~read_only:false ~bytes:64;
        match srv.S.create ~dir ~name ~mode:0o644 ~uid:0 ~gid:0 with
        | Ok (fh, _) -> fh
        | Error e -> fail_err "create" e);
    write =
      (fun ~fh ~off ~data ->
        call ~read_only:false ~bytes:(String.length data + 32);
        match srv.S.write ~fh ~off ~data with
        | Ok () -> ()
        | Error e -> fail_err "write" e);
    read =
      (fun ~fh ~off ~count ->
        call ~read_only:true ~bytes:(count + 32);
        match srv.S.read ~fh ~off ~count with
        | Ok data -> data
        | Error e -> fail_err "read" e);
    size_of =
      (fun ~fh ->
        call ~read_only:true ~bytes:96;
        match srv.S.getattr ~fh with
        | Ok a -> a.S.a_size
        | Error e -> fail_err "getattr" e);
    lookup =
      (fun ~dir ~name ->
        call ~read_only:true ~bytes:96;
        match srv.S.lookup ~dir ~name with
        | Ok (fh, a) -> Some (fh, a.S.a_ftype)
        | Error Enoent -> None
        | Error e -> fail_err "lookup" e);
    readdir =
      (fun ~dir ->
        call ~read_only:true ~bytes:256;
        match srv.S.readdir ~dir with
        | Ok entries -> entries
        | Error e -> fail_err "readdir" e);
    remove =
      (fun ~dir ~name ->
        call ~read_only:false ~bytes:64;
        match srv.S.remove ~dir ~name with
        | Ok () -> ()
        | Error e -> fail_err "remove" e);
    think = (fun ~us -> d.Systems.elapsed_us <- d.Systems.elapsed_us +. us);
    elapsed_s = (fun () -> d.Systems.elapsed_us /. 1e6);
    ops = (fun () -> !ops);
  }
