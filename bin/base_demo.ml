(* base_demo: command-line front end for the BASE reproduction.

     base_demo andrew --scale 2 --system base|raw [--recovery]
     base_demo trace  [--ops N]
     base_demo nversion
     base_demo metrics [--duration S] [--json]
     base_demo loc [DIR]      (no DIR: one row per lib/ subsystem + total)

   See README.md for a tour. *)

open Cmdliner
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Systems = Base_workload.Systems
module Fs_iface = Base_workload.Fs_iface
module Andrew = Base_workload.Andrew
module Faults = Base_workload.Faults

let andrew_cmd =
  let scale =
    Arg.(value & opt int 2 & info [ "scale" ] ~docv:"N" ~doc:"Benchmark scale factor.")
  in
  let system =
    Arg.(
      value
      & opt (enum [ ("base", `Base); ("raw", `Raw) ]) `Base
      & info [ "system" ] ~doc:"Run against the replicated service (base) or the raw impl.")
  in
  let recovery =
    Arg.(value & flag & info [ "recovery" ] ~doc:"Enable staggered proactive recovery.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let run scale system recovery seed =
    let r =
      match system with
      | `Raw ->
        let raw = Systems.make_direct ~seed:(Int64.of_int seed) () in
        Andrew.run ~scale (Fs_iface.of_direct raw)
      | `Base ->
        let sys =
          Systems.make_basefs ~seed:(Int64.of_int seed) ~hetero:true ~n_clients:1 ()
        in
        if recovery then
          Runtime.enable_proactive_recovery ~period_us:3_000_000 sys.Systems.runtime;
        Andrew.run ~scale (Fs_iface.of_runtime ~client:0 sys.Systems.runtime)
    in
    Format.printf "%a" Andrew.pp_result r
  in
  Cmd.v
    (Cmd.info "andrew" ~doc:"Run the scaled Andrew benchmark.")
    Term.(const run $ scale $ system $ recovery $ seed)

let trace_cmd =
  let ops = Arg.(value & opt int 1 & info [ "ops" ] ~docv:"N" ~doc:"Operations to trace.") in
  let run ops =
    let sys = Systems.make_basefs ~hetero:true ~n_clients:1 () in
    let rt = sys.Systems.runtime in
    let nfs = Systems.nfs_client rt ~client:0 in
    let trace = Base_obs.Trace.create () in
    Engine.attach_trace (Runtime.engine rt) trace;
    for i = 1 to ops do
      ignore
        (Base_nfs.Nfs_client.ok
           (Base_nfs.Nfs_client.create nfs Base_nfs.Nfs_types.root_oid
              (Printf.sprintf "traced%d" i) Base_nfs.Nfs_types.sattr_empty))
    done;
    Format.printf "%a" Base_obs.Trace.pp trace;
    if Base_obs.Trace.dropped trace > 0 then
      Printf.printf "  ... (%d more network events)\n" (Base_obs.Trace.dropped trace)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the protocol messages behind NFS operations.")
    Term.(const run $ ops)

let nversion_cmd =
  let run () =
    let report (o : Faults.poison_outcome) =
      Printf.printf "%-38s buggy=%d correct=%b divergent=%d\n" o.Faults.configuration
        o.Faults.buggy_replicas o.Faults.read_back_correct o.Faults.divergent
    in
    report (Faults.poison_experiment ~hetero:true ());
    report (Faults.poison_experiment ~hetero:false ())
  in
  Cmd.v
    (Cmd.info "nversion" ~doc:"Deterministic-bug experiment: heterogeneous vs homogeneous.")
    Term.(const run $ const ())

let recovery_cmd =
  let duration =
    Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run length.")
  in
  let period =
    Arg.(value & opt float 3.0 & info [ "period" ] ~docv:"SECONDS" ~doc:"Recovery period per replica.")
  in
  let run duration period =
    let _, base =
      Faults.throughput_trace ~duration_s:duration ~window_s:1.0 ~recovery:None ()
    in
    let sys, rec_ =
      Faults.throughput_trace ~duration_s:duration ~window_s:1.0
        ~recovery:(Some (int_of_float (period *. 1e6), 100_000))
        ()
    in
    Printf.printf "%-10s %-16s %-16s\n" "window" "no-recovery" "with-recovery";
    List.iter2
      (fun (a : Faults.window) (b : Faults.window) ->
        Printf.printf "%-10.1f %-16d %-16d\n" a.Faults.w_start_s a.Faults.w_ops b.Faults.w_ops)
      base rec_;
    Array.iter
      (fun node ->
        let rs = node.Runtime.recovery_stats in
        Printf.printf "replica %d: %d recoveries, %d objects fetched\n" node.Runtime.rid
          rs.Runtime.recoveries rs.Runtime.fetched.Base_core.State_transfer.objects_fetched)
      (Runtime.replicas sys.Systems.runtime)
  in
  Cmd.v
    (Cmd.info "recovery" ~doc:"Throughput trace with staggered proactive recovery.")
    Term.(const run $ duration $ period)

let throughput_cmd =
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let batch =
    Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc:"Maximum requests per batch.")
  in
  let run clients batch =
    let sys =
      Systems.make_basefs ~hetero:true ~n_clients:clients ~batch_max:batch ~max_inflight:8 ()
    in
    let rt = sys.Systems.runtime in
    let files =
      List.init clients (fun c ->
          let nfs = Systems.nfs_client rt ~client:c in
          fst
            (Base_nfs.Nfs_client.ok
               (Base_nfs.Nfs_client.create nfs Base_nfs.Nfs_types.root_oid
                  (Printf.sprintf "c%d" c) Base_nfs.Nfs_types.sattr_empty)))
    in
    let completed = ref 0 in
    let payload = String.make 128 'x' in
    let rec issue c fh =
      Runtime.invoke rt ~client:c
        ~operation:(Base_nfs.Nfs_proto.encode_call (Base_nfs.Nfs_proto.Write (fh, 0, payload)))
        (fun _ ->
          incr completed;
          issue c fh)
    in
    List.iteri issue files;
    Engine.run
      ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 1.0))
      (Runtime.engine rt);
    Printf.printf "%d clients, batch<=%d: %d writes/s of virtual time\n" clients batch !completed
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Concurrent-client throughput with request batching.")
    Term.(const run $ clients $ batch)

let metrics_cmd =
  let duration =
    Arg.(value & opt float 6.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual run length.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full report as deterministic JSON.")
  in
  let run duration seed json =
    let sys = Systems.make_basefs ~seed:(Int64.of_int seed) ~hetero:true ~n_clients:1 () in
    let rt = sys.Systems.runtime in
    Runtime.enable_proactive_recovery ~reboot_us:100_000 ~period_us:2_000_000 rt;
    let nfs = Systems.nfs_client rt ~client:0 in
    let fh, _ =
      Base_nfs.Nfs_client.ok
        (Base_nfs.Nfs_client.create nfs Base_nfs.Nfs_types.root_oid "metrics"
           Base_nfs.Nfs_types.sattr_empty)
    in
    let payload = String.make 128 'm' in
    let rec issue () =
      Runtime.invoke rt ~client:0
        ~operation:(Base_nfs.Nfs_proto.encode_call (Base_nfs.Nfs_proto.Write (fh, 0, payload)))
        (fun _ -> issue ())
    in
    issue ();
    Engine.run
      ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec duration))
      (Runtime.engine rt);
    if json then print_endline (Base_obs.Json.to_string_pretty (Runtime.metrics_report rt))
    else begin
      Format.printf "%a" Base_obs.Metrics.pp (Runtime.metrics rt);
      Printf.printf "\ntraffic by message type:\n";
      Printf.printf "%-14s %10s %14s %10s %8s\n" "label" "sent" "sent-bytes" "recv" "drop";
      List.iter
        (fun (label, c) ->
          Printf.printf "%-14s %10d %14d %10d %8d\n" label c.Engine.sent_msgs
            c.Engine.sent_bytes c.Engine.recv_msgs c.Engine.dropped_msgs)
        (Engine.label_counters (Runtime.engine rt));
      Printf.printf "\nrecovery timelines (simulated seconds):\n";
      List.iter
        (fun tl ->
          let dur = function
            | Some us -> Printf.sprintf "%.3f" (float_of_int us /. 1e6)
            | None -> "-"
          in
          Printf.printf
            "replica %d: start %.3f  %s %s  window %s  %d objects, %d bytes\n"
            tl.Runtime.tl_rid
            (Int64.to_float tl.Runtime.tl_start_us /. 1e6)
            (if tl.Runtime.tl_migrated then "promote" else "reboot")
            (dur (Runtime.timeline_handoff_us tl))
            (dur (Runtime.timeline_window_us tl))
            tl.Runtime.tl_objects tl.Runtime.tl_bytes)
        (Runtime.recovery_timelines rt);
      let st = Runtime.st_totals rt in
      Printf.printf
        "\nstate transfer: %d meta, %d objects, %d bytes, %d retries, %d rejected replies\n"
        st.Base_core.State_transfer.meta_fetched st.Base_core.State_transfer.objects_fetched
        st.Base_core.State_transfer.bytes_fetched st.Base_core.State_transfer.retries
        (Base_core.State_transfer.rejected st);
      let count name =
        Base_obs.Metrics.counter_value (Base_obs.Metrics.counter (Runtime.metrics rt) name)
      in
      Printf.printf "catch-up: %d STATUS sent at once, %d fetches re-targeted as superseded\n"
        (count "bft.catchup_status") (count "base.st.retarget.superseded");
      Printf.printf "vouching: %d vouchers sent, %d missed requests proposed on f+1 vouchers\n"
        (count "bft.vouchers_sent") (count "bft.vouched_proposals")
    end
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Run under load and print the observability report.")
    Term.(const run $ duration $ seed $ json)

let loc_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"File or directory to count; default: each lib/ subsystem and the total.")
  in
  let row path =
    let c = Base_util.Loc_count.count_path path in
    Printf.printf "%s: %d files, %d non-blank lines, %d semicolons\n" path
      c.Base_util.Loc_count.files c.Base_util.Loc_count.lines c.Base_util.Loc_count.semicolons
  in
  let run = function
    | Some path -> (
      try row path
      with Sys_error msg ->
        prerr_endline ("base_demo loc: " ^ msg);
        exit 1)
    | None ->
      Sys.readdir "lib" |> Array.to_list |> List.sort String.compare
      |> List.map (Filename.concat "lib")
      |> List.filter Sys.is_directory |> List.iter row;
      row "lib"
  in
  Cmd.v (Cmd.info "loc" ~doc:"Count source lines (code-size experiment).") Term.(const run $ path)

let () =
  let doc = "BASE: using abstraction to improve fault tolerance (reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "base_demo" ~doc) [ andrew_cmd; trace_cmd; nversion_cmd; recovery_cmd; throughput_cmd; metrics_cmd; loc_cmd ]))
