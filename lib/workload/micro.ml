(** Operation-level micro-benchmarks of the replicated file service:
    latency per NFS call type, replicated vs unreplicated, separating
    read-write calls (full agreement) from read-only calls (the one-round
    optimisation).  The same measurement style as the BFT library's
    micro-benchmarks. *)

open Base_nfs.Nfs_types
module Runtime = Base_core.Runtime
module Sim_time = Base_sim.Sim_time
module C = Base_nfs.Nfs_client

type row = {
  op : string;
  read_only : bool;
  base_us : float;  (** mean latency through the replicated service *)
  raw_us : float;  (** analytic latency against the unwrapped server *)
}

let slowdown r = r.base_us /. r.raw_us

let run ?(seed = 3L) ?(n = 30) () =
  let sys = Systems.make_basefs ~seed ~hetero:true ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  let nfs = Systems.nfs_client rt ~client:0 in
  (* Fixtures. *)
  let dir = C.mkdir_p nfs "/micro" in
  let file = C.write_file nfs dir "target" ~chunk:8192 (String.make 8192 'd') in
  let rows = ref [] in
  (* Latency of [n] repetitions of a call through the replicated stack,
     measured in virtual time (protocol only; the service-time model applies
     equally to both sides, so it is excluded here to isolate replication
     cost), against the unreplicated baseline's one request/response
     exchange. *)
  let bench op read_only ~raw_bytes make_call =
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      let t0 = Sim_time.to_sec (Runtime.now rt) in
      make_call nfs i;
      total := !total +. (Sim_time.to_sec (Runtime.now rt) -. t0)
    done;
    let base_us = !total /. float_of_int n *. 1e6 in
    let raw_us = (2.0 *. (60.0 +. 15.0)) +. (float_of_int (raw_bytes * 8) /. 100e6 *. 1e6) in
    rows := { op; read_only; base_us; raw_us } :: !rows
  in
  bench "getattr" true ~raw_bytes:128 (fun nfs _ -> ignore (C.ok (C.getattr nfs file)));
  bench "lookup" true ~raw_bytes:128 (fun nfs _ -> ignore (C.ok (C.lookup nfs dir "target")));
  bench "read-8k" true ~raw_bytes:8300 (fun nfs _ ->
      ignore (C.ok (C.read nfs file ~off:0 ~count:8192)));
  bench "readdir" true ~raw_bytes:512 (fun nfs _ -> ignore (C.ok (C.readdir nfs dir)));
  bench "write-1k" false ~raw_bytes:1200 (fun nfs i ->
      ignore (C.ok (C.write nfs file ~off:(1024 * (i mod 8)) (String.make 1024 'w'))));
  bench "write-8k" false ~raw_bytes:8300 (fun nfs _ ->
      ignore (C.ok (C.write nfs file ~off:0 (String.make 8192 'W'))));
  bench "create+remove" false ~raw_bytes:256 (fun nfs i ->
      let name = Printf.sprintf "tmp%d" i in
      ignore (C.ok (C.create nfs dir name sattr_empty));
      ignore (C.ok (C.remove nfs dir name)));
  bench "setattr" false ~raw_bytes:160 (fun nfs i ->
      ignore (C.ok (C.setattr nfs file { sattr_empty with s_mode = Some (0o600 + (i mod 8)) })));
  List.rev !rows
