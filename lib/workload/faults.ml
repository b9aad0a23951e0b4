(** Fault-injection scenarios: opportunistic N-version programming against a
    deterministic software bug (E6), state corruption with proactive-recovery
    repair (E9), availability probes used by the recovery experiment (E5),
    and the scheduled chaos sweep with a Byzantine primary (E13). *)

open Base_nfs.Nfs_types
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Objrepo = Base_core.Objrepo
module S = Base_fs.Server_intf

let nfs_of sys ~client =
  Base_nfs.Nfs_client.make (fun ~read_only ~operation ->
      Runtime.invoke_sync sys.Systems.runtime ~client ~read_only ~operation ())

(* Distinct abstract-state roots across the replica group (0 divergent =
   everybody agrees). *)
let divergent_replicas sys =
  let roots =
    Array.map
      (fun node -> Objrepo.current_root node.Runtime.repo)
      (Runtime.replicas sys.Systems.runtime)
  in
  let counts = Hashtbl.create 4 in
  Array.iter
    (fun r ->
      let k = Base_crypto.Digest_t.raw r in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    roots;
  let tallies =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let majority = List.fold_left (fun acc (_, c) -> max c acc) 0 tallies in
  Array.length roots - majority

(* --- E6: deterministic bug vs N-version programming -------------------------- *)

type poison_outcome = {
  configuration : string;
  read_back_correct : bool;  (** did the client read what it wrote? *)
  divergent : int;  (** replicas whose abstract state differs from majority *)
  buggy_replicas : int;
}

(* Arm the latent bug on every replica running [buggy_impl], then have the
   client write data that triggers it and read the data back. *)
let poison_experiment ?(seed = 5L) ~hetero () =
  let sys = Systems.make_basefs ~seed ~hetero ~n_clients:1 () in
  let buggy = ref 0 in
  Array.iteri
    (fun rid name ->
      if String.equal name "hash" then begin
        incr buggy;
        sys.Systems.servers.(rid).S.set_poison (Some "BUG")
      end)
    sys.Systems.impl_of;
  let nfs = nfs_of sys ~client:0 in
  let module C = Base_nfs.Nfs_client in
  let payload = "static int BUG_trigger = 42; /* crosses the bad code path */" in
  let file, _ = C.ok (C.create nfs root_oid "poisoned.c" sattr_empty) in
  ignore (C.ok (C.write nfs file ~off:0 payload));
  let got, _ = C.ok (C.read nfs file ~off:0 ~count:(String.length payload)) in
  (* Let in-flight protocol traffic settle before inspecting the replicas. *)
  Engine.run
    ~until:(Sim_time.add (Runtime.now sys.Systems.runtime) (Sim_time.of_ms 100))
    (Runtime.engine sys.Systems.runtime);
  {
    configuration = (if hetero then "heterogeneous (4 distinct impls)" else "homogeneous (4 x hash)");
    read_back_correct = String.equal got payload;
    divergent = divergent_replicas sys;
    buggy_replicas = !buggy;
  }

(* --- E9: concrete-state corruption and repair --------------------------------- *)

type corruption_outcome = {
  corrupt_replicas : int;
  objects_damaged : int;
  reads_correct_before_repair : bool;
  objects_repaired : int;  (** fetched during proactive recovery *)
  divergent_after_repair : int;
}

let populate nfs ~files ~len =
  let module C = Base_nfs.Nfs_client in
  List.init files (fun i ->
      let name = Printf.sprintf "data%02d" i in
      let body = String.init len (fun k -> Char.chr (((i * 31) + k) mod 256)) in
      let fh, _ = C.ok (C.create nfs root_oid name sattr_empty) in
      ignore (C.ok (C.write nfs fh ~off:0 body));
      (fh, body))

let corruption_experiment ?(seed = 9L) ~corrupt_replicas ~objects_per_replica () =
  let sys = Systems.make_basefs ~seed ~hetero:true ~checkpoint_period:16 ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  let nfs = nfs_of sys ~client:0 in
  let module C = Base_nfs.Nfs_client in
  let files = populate nfs ~files:12 ~len:4096 in
  (* Silent bit rot on the first [corrupt_replicas] replicas. *)
  let prng = Base_util.Prng.create (Int64.add seed 1000L) in
  let damaged = ref 0 in
  for rid = 0 to corrupt_replicas - 1 do
    damaged := !damaged + sys.Systems.servers.(rid).S.corrupt ~prng ~count:objects_per_replica
  done;
  (* Reads must still be correct while no more than f replicas are corrupt:
     the wrapped, corrupted replicas are simply outvoted. *)
  let reads_ok =
    List.for_all
      (fun (fh, body) ->
        let got, _ = C.ok (C.read nfs fh ~off:0 ~count:(String.length body)) in
        String.equal got body)
      files
  in
  (* Proactive recovery sweeps every replica; keep light load running so
     checkpoints keep certifying fresh states. *)
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:1_500_000 rt;
  for i = 0 to 40 do
    let fh, _ = List.nth files (i mod 12) in
    ignore (C.ok (C.write nfs fh ~off:0 (Printf.sprintf "tick %d" i)));
    Engine.advance_to (Runtime.engine rt)
      (Sim_time.add (Runtime.now rt) (Sim_time.of_ms 200))
  done;
  Runtime.disable_proactive_recovery rt;
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 3.0)) (Runtime.engine rt);
  let repaired =
    Array.fold_left
      (fun acc node ->
        acc + node.Runtime.recovery_stats.Runtime.fetched.Base_core.State_transfer.objects_fetched)
      0 (Runtime.replicas rt)
  in
  {
    corrupt_replicas;
    objects_damaged = !damaged;
    reads_correct_before_repair = reads_ok;
    objects_repaired = repaired;
    divergent_after_repair = divergent_replicas sys;
  }

(* --- E5: availability probe ---------------------------------------------------- *)

type window = { w_start_s : float; w_ops : int }

(* Continuous closed-loop load; returns completed-operation counts per
   [window_s]-second window of virtual time. *)
let throughput_trace ?(seed = 13L) ~duration_s ~window_s ~recovery () =
  let sys = Systems.make_basefs ~seed ~hetero:true ~checkpoint_period:32 ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  (match recovery with
  | Some (period_us, reboot_us) ->
    Runtime.enable_proactive_recovery ~reboot_us ~period_us rt
  | None -> ());
  let nfs = nfs_of sys ~client:0 in
  let module C = Base_nfs.Nfs_client in
  let fh, _ = C.ok (C.create nfs root_oid "probe" sattr_empty) in
  let completions = ref [] in
  let n = ref 0 in
  while Sim_time.to_sec (Runtime.now rt) < duration_s do
    incr n;
    ignore (C.ok (C.write nfs fh ~off:0 (Printf.sprintf "op%d" !n)));
    completions := Sim_time.to_sec (Runtime.now rt) :: !completions
  done;
  let buckets = int_of_float (Float.ceil (duration_s /. window_s)) in
  let counts = Array.make buckets 0 in
  List.iter
    (fun t ->
      let b = int_of_float (t /. window_s) in
      if b >= 0 && b < buckets then counts.(b) <- counts.(b) + 1)
    !completions;
  ( sys,
    Array.to_list (Array.mapi (fun i c -> { w_start_s = float_of_int i *. window_s; w_ops = c }) counts)
  )

(* --- E13: chaos sweep — scheduled faults plus a Byzantine primary --------------- *)

module Faultplan = Base_sim.Faultplan
module Metrics = Base_obs.Metrics
module P = Base_nfs.Nfs_proto

type chaos_outcome = {
  ch_plan : Faultplan.t;
  ch_ops : int;  (** writes attempted while the storm was running *)
  ch_completed : int;
  ch_stalls : int;  (** liveness losses: the event budget ran out *)
  ch_read_checks : int;
  ch_read_errors : int;  (** linearizability violations (read-your-writes) *)
  ch_view_changes : int;  (** completed view changes ([bft.view_change_us] samples) *)
  ch_equivocations : int;  (** [bft.equivocation_detected] *)
  ch_corrupted : int;  (** [engine.corrupted_msgs] *)
  ch_pp_muted : int;  (** [adversary.pp_muted] *)
  ch_divergent : int;  (** replicas off the majority abstract state after settling *)
}

(* The blessed f=1 schedule: at most one replica is faulty at any moment, so
   every window is survivable, yet each window exercises a different
   view-change trigger — an equivocating primary, an omission/delay attack on
   its successor, a primary crash, an isolated primary — followed by
   link-level noise (delay spike, loss, corruption) and a mute backup. *)
let chaos_plan_text =
  "# f=1 chaos schedule: never more than one faulty replica at a time.\n\
   at 50ms behavior 0 equivocate\n\
   at 450ms behavior 0 honest\n\
   at 600ms attack-preprepare 1 mute=0.7 delay=3ms for 400ms\n\
   at 1200ms crash 2\n\
   at 1700ms reboot 2\n\
   at 2100ms partition 3 / 0 1 2\n\
   at 2500ms heal\n\
   at 2700ms delay *->1 extra=2ms for 200ms\n\
   at 2950ms drop 1->* p=0.3 for 200ms\n\
   at 3200ms corrupt *->* p=0.2 for 200ms\n\
   at 3450ms behavior 3 mute\n\
   at 3750ms behavior 3 honest\n"

let counter_value m name = Metrics.counter_value (Metrics.counter m name)

(* Closed-loop writes with periodic read-back checks while the fault plan
   fires around the group.  Every operation uses the [try_] driver: a stall
   is counted, not fatal, so the experiment reports liveness instead of
   crashing.  Reads go through the read-only optimisation, whose 2f+1
   matching replies must intersect every commit quorum — the linearizability
   property checked against the last completed write. *)
let chaos_experiment ?(seed = 21L) () =
  let sys =
    Systems.make_basefs ~seed ~hetero:true ~checkpoint_period:16 ~n_clients:1
      ~client_timeout_us:60_000 ~viewchange_timeout_us:120_000 ()
  in
  let rt = sys.Systems.runtime in
  let plan =
    match Faultplan.parse chaos_plan_text with
    | Ok p -> p
    | Error e -> invalid_arg ("chaos_experiment: bad plan: " ^ e)
  in
  let nfs = nfs_of sys ~client:0 in
  let module C = Base_nfs.Nfs_client in
  let fh, _ = C.ok (C.create nfs root_oid "chaos" sattr_empty) in
  let t0 = Sim_time.to_sec (Runtime.now rt) in
  Runtime.apply_faultplan rt plan;
  let ops = ref 0 and completed = ref 0 and stalls = ref 0 in
  let read_checks = ref 0 and read_errors = ref 0 in
  let last_write = ref None in
  let i = ref 0 in
  while Sim_time.to_sec (Runtime.now rt) < t0 +. 4.2 do
    incr i;
    let payload = Printf.sprintf "chaos-op-%04d" !i in
    incr ops;
    (match
       Runtime.try_invoke_sync rt ~client:0
         ~operation:(P.encode_call (P.Write (fh, 0, payload)))
         ()
     with
    | Ok _ -> incr completed; last_write := Some payload
    | Error _ -> incr stalls);
    match !last_write with
    | Some expect when !i mod 4 = 0 -> (
      incr read_checks;
      match
        Runtime.try_invoke_sync rt ~client:0 ~read_only:true
          ~operation:(P.encode_call (P.Read (fh, 0, String.length expect)))
          ()
      with
      | Ok reply -> (
        match P.decode_reply reply with
        | P.R_read (data, _) -> if not (String.equal data expect) then incr read_errors
        | _ -> incr read_errors)
      | Error _ -> incr stalls)
    | Some _ | None -> ()
  done;
  (* The storm is over (the last window closes at 3.75 s): drain in-flight
     traffic and give the rebooted/partitioned replicas time to catch up via
     status gossip and state transfer before judging divergence. *)
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 2.0)) (Runtime.engine rt);
  let m = Runtime.metrics rt in
  ( sys,
    {
      ch_plan = plan;
      ch_ops = !ops;
      ch_completed = !completed;
      ch_stalls = !stalls;
      ch_read_checks = !read_checks;
      ch_read_errors = !read_errors;
      ch_view_changes = Metrics.hist_count (Metrics.histogram m "bft.view_change_us");
      ch_equivocations = counter_value m "bft.equivocation_detected";
      ch_corrupted = counter_value m "engine.corrupted_msgs";
      ch_pp_muted = counter_value m "adversary.pp_muted";
      ch_divergent = divergent_replicas sys;
    } )
