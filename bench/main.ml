(* Experiment harness: regenerates every quantitative claim of the paper
   (see DESIGN.md section 4 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured numbers).

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- E3 E5   # selected experiments *)

module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Objrepo = Base_core.Objrepo
module Service = Base_core.Service
module St = Base_core.State_transfer
module Replica = Base_bft.Replica
module Systems = Base_workload.Systems
module Fs_iface = Base_workload.Fs_iface
module Andrew = Base_workload.Andrew
module Faults = Base_workload.Faults
module C = Base_nfs.Nfs_client
open Base_nfs.Nfs_types

let section id title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s - %s\n" id title;
  Printf.printf "==========================================================\n%!"

(* --- results as JSON sections, and the one table printer ------------------------ *)

(* A blessed experiment builds its result once, as the JSON section it
   writes into BENCH_metrics.json, and its tables, summary lines and asserts
   read that section, so no number has a second home.  The metrics registry
   (E12), the chaos outcome (E13) and the profiler (E17) keep their own
   renderers. *)

module J = Base_obs.Json

let fields = function J.Obj kv -> kv | _ -> invalid_arg "not an object"

let get j key =
  match List.assoc_opt key (fields j) with Some v -> v | None -> invalid_arg ("no field " ^ key)

let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> invalid_arg "not a number"

let getf j key = num (get j key)

let geti j key = match get j key with J.Int i -> i | _ -> invalid_arg ("not an int: " ^ key)

let items = function J.List l -> l | _ -> invalid_arg "not a list"

(* Cell formats: one JSON value to the text of a table cell. *)
let text = function J.Str s -> s | v -> J.to_string v

let fixed decimals v = Printf.sprintf "%.*f" decimals (num v)

(* [row] plus a field the section keeps as the row's key, for the label
   column of a table whose rows are named entries of an object. *)
let with_field key v row = J.Obj ((key, v) :: fields row)

(* Print [rows] (JSON objects) under a header.  A column is its header, the
   row field it shows, its width (negative: left-aligned) and its cell
   format. *)
let table cols rows =
  let line cell =
    let pad ((_, _, w, _) as c) =
      if w < 0 then Printf.sprintf "%-*s" (-w) (cell c) else Printf.sprintf "%*s" w (cell c)
    in
    print_endline ("  " ^ String.concat " " (List.map pad cols))
  in
  line (fun (head, _, _, _) -> head);
  List.iter (fun row -> line (fun (_, key, _, fmt) -> fmt (get row key))) rows

(* --- E2: software architecture trace (Figure 2) ------------------------------- *)

let e2 () =
  section "E2" "software architecture: the path of one NFS write (Fig. 2)";
  let sys = Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  let nfs = Systems.nfs_client rt ~client:0 in
  let f, _ = C.ok (C.create nfs root_oid "traced" sattr_empty) in
  (* Trace only the interesting op, keeping the first 28 network events. *)
  let trace = Base_obs.Trace.create ~limit:28 () in
  Engine.attach_trace (Runtime.engine rt) trace;
  ignore (C.ok (C.write nfs f ~off:0 "through the whole stack"));
  (* Attributes are strings on the trace; numbers go into the section as numbers. *)
  let attr v =
    match int_of_string_opt v with
    | Some i when String.equal (string_of_int i) v -> J.Int i
    | _ -> J.Str v
  in
  let event (e : Base_obs.Trace.event) =
    J.(obj
         [
           ("attrs", obj (List.map (fun (k, v) -> (k, attr v)) e.attrs));
           ("name", Str e.name);
           ("ts_us", Int (Int64.to_int e.ts));
         ])
  in
  let s =
    J.(obj
         [
           ("dropped", Int (Base_obs.Trace.dropped trace));
           ("events", List (List.map event (Base_obs.Trace.events trace)));
           ("impls", List (List.map (fun i -> Str i) (Array.to_list sys.Systems.impl_of)));
         ])
  in
  Format.printf "%a%!" Base_obs.Trace.pp trace;
  if geti s "dropped" > 0 then
    Printf.printf "  ... (%d more network events)\n" (geti s "dropped");
  Printf.printf
    "\n\
     client 4 -> replicas 0-3 (REQUEST), primary orders it (PRE-PREPARE),\n\
     backups agree (PREPARE/COMMIT), each conformance wrapper drives its own\n\
     off-the-shelf file system, replicas answer (REPLY), client accepts f+1\n\
     matching replies.  Implementations per replica: %s\n"
    (String.concat ", " (List.map text (items (get s "impls"))));
  s

(* --- E3: scaled Andrew benchmark (Section 4) ----------------------------------- *)

(* An Andrew run prints with [Andrew.pp_result], as [base_demo andrew] does;
   the section keeps the same record's fields. *)
let andrew_json (r : Andrew.result) =
  let phase (p : Andrew.phase_result) =
    J.(obj
         [
           ("bytes", Int p.Andrew.bytes);
           ("ops", Int p.Andrew.ops);
           ("phase", Str p.Andrew.phase);
           ("seconds", Float p.Andrew.seconds);
         ])
  in
  J.(obj
       [
         ("label", Str r.Andrew.label);
         ("phases", List (List.map phase r.Andrew.phases));
         ("scale", Int r.Andrew.scale);
         ("total_bytes", Int r.Andrew.total_bytes);
         ("total_seconds", Float r.Andrew.total_seconds);
       ])

let print_andrew r = Format.printf "%a" Andrew.pp_result r

let e3 () =
  section "E3" "scaled Andrew benchmark: BASE-FS vs the unwrapped implementation";
  let scale = 3 in
  (* Baseline: the off-the-shelf implementation, unreplicated. *)
  let raw = Systems.make_direct ~impl:"inode" () in
  let r_raw = Andrew.run ~scale (Fs_iface.of_direct raw) in
  (* BASE-FS, heterogeneous replicas, with the engine's per-type census. *)
  let sys = Systems.make_basefs ~hetero:true ~checkpoint_period:128 ~n_clients:1 () in
  let engine = Runtime.engine sys.Systems.runtime in
  let r_rep = Andrew.run ~scale (Fs_iface.of_runtime ~client:0 sys.Systems.runtime) in
  let overhead r = 100.0 *. ((r.Andrew.total_seconds /. r_raw.Andrew.total_seconds) -. 1.0) in
  (* BASE-FS with proactive recovery: scale the window of vulnerability to
     the run as the paper scales 17 minutes to its Andrew run. *)
  let sys2 = Systems.make_basefs ~seed:2L ~hetero:true ~checkpoint_period:128 ~n_clients:1 () in
  let rt2 = sys2.Systems.runtime in
  (* Half the unrecovered run: the last replica's second recovery starts no
     later than that run would end, and recovery only lengthens the run, so
     every replica recovers at least twice.  The stagger (period/n) exceeds
     the 30 ms reboot, so at most one replica is down at a time. *)
  let period_us = int_of_float (r_rep.Andrew.total_seconds *. 1e6 /. 2.0) in
  Runtime.enable_proactive_recovery ~reboot_us:30_000 ~period_us rt2;
  let r_pr =
    { (Andrew.run ~scale (Fs_iface.of_runtime ~client:0 rt2)) with Andrew.label = "base-fs+PR" }
  in
  let counts =
    List.map
      (fun node -> node.Runtime.recovery_stats.Runtime.recoveries)
      (Array.to_list (Runtime.replicas rt2))
  in
  let traffic =
    List.stable_sort
      (fun (_, a) (_, b) -> Int.compare b.Engine.sent_msgs a.Engine.sent_msgs)
      (Engine.label_counters engine)
  in
  let s =
    J.(obj
         [
           ("base", andrew_json r_rep);
           ("base_pr", andrew_json r_pr);
           ("messages", Int (Engine.total_counters engine).Engine.sent_msgs);
           ("min_recoveries", Int (List.fold_left Int.min max_int counts));
           ("overhead_pct", Float (overhead r_rep));
           ("overhead_pr_pct", Float (overhead r_pr));
           ("raw", andrew_json r_raw);
           ("recoveries", Int (List.fold_left ( + ) 0 counts));
           ( "retransmissions",
             Int (Base_bft.Client.stats (Runtime.client rt2 0)).Base_bft.Client.retransmissions );
           ( "traffic",
             List
               (List.map
                  (fun (l, c) -> obj [ ("label", Str l); ("sent", Int c.Engine.sent_msgs) ])
                  traffic) );
           ("window_s", Float (2.0 *. float_of_int period_us /. 1e6));
         ])
  in
  print_andrew r_raw;
  print_andrew r_rep;
  Printf.printf "  protocol traffic during the run (%d messages):\n" (geti s "messages");
  table [ ("label", "label", -14, text); ("sent", "sent", 8, text) ] (items (get s "traffic"));
  print_andrew r_pr;
  Printf.printf "  client retransmissions: %d\n" (geti s "retransmissions");
  Printf.printf
    "\n\
     paper:    ~30%% overhead vs the off-the-shelf NFS it wraps (17-min window)\n\
     measured: %+.1f%% overhead (no recovery), %+.1f%% with proactive recovery\n\
    \          (%d recoveries, at least %d per replica, window ~ %.2f s of a %.2f s run)\n"
    (getf s "overhead_pct") (getf s "overhead_pr_pct") (geti s "recoveries")
    (geti s "min_recoveries") (getf s "window_s") (getf (get s "base_pr") "total_seconds");
  (* A write that reaches the group while the primary reboots is vouched
     for by the backups once the primary is back.  Without that, each one
     waited out the client's 150 ms retransmission timer (two here, +81.7 %
     overhead). *)
  assert (geti s "retransmissions" = 0);
  s

let e3_ablation () =
  section "E3b" "ablation: checkpoint period k (cost of checkpointing)";
  let row k =
    let sys = Systems.make_basefs ~hetero:true ~checkpoint_period:k ~n_clients:1 () in
    let r = Andrew.run ~scale:1 (Fs_iface.of_runtime ~client:0 sys.Systems.runtime) in
    let cps, copies =
      Array.fold_left
        (fun (c, o) node ->
          let s = Replica.stats node.Runtime.replica in
          let cow = Objrepo.stats node.Runtime.repo in
          (c + s.Replica.checkpoints_taken, o + cow.Objrepo.objects_copied))
        (0, 0)
        (Runtime.replicas sys.Systems.runtime)
    in
    J.(obj
         [
           ("checkpoints", Int cps);
           ("cow_copies", Int copies);
           ("k", Int k);
           ("total_s", Float r.Andrew.total_seconds);
         ])
  in
  let s = List.map row [ 8; 32; 128 ] in
  table
    [
      ("k", "k", -6, text);
      ("total(s)", "total_s", -10, fixed 3);
      ("checkpoints", "checkpoints", -14, text);
      ("cow copies", "cow_copies", -12, text);
    ]
    s;
  Printf.printf
    "  smaller k -> more checkpoints and more copy-on-write copies; elapsed\n\
    \  time is protocol-dominated, which is the paper's point: checkpointing\n\
    \  through the abstraction is cheap.\n";
  J.List s

let e3_micro () =
  section "E3c" "operation-level latency: replicated vs unreplicated (protocol cost)";
  let module Micro = Base_workload.Micro in
  let row (r : Micro.row) =
    J.(obj
         [
           ("base_us", Float r.Micro.base_us);
           ("op", Str r.Micro.op);
           ("raw_us", Float r.Micro.raw_us);
           ("read_only", Bool r.Micro.read_only);
           ("slowdown", Float (Micro.slowdown r));
         ])
  in
  let s = List.map row (Micro.run ()) in
  table
    [
      ("operation", "op", -14, text);
      ("kind", "read_only", -6, function J.Bool true -> "ro" | _ -> "rw");
      ("base-fs(us)", "base_us", 12, fixed 0);
      ("raw(us)", "raw_us", 12, fixed 0);
      ("slowdown", "slowdown", 10, fun v -> fixed 2 v ^ "x");
    ]
    s;
  Printf.printf
    "  read-only calls answer in one round (close to raw); read-write calls\n\
    \  pay the three-phase agreement - the asymmetry the BFT library reports.\n";
  J.List s

(* --- E4: code-size argument ---------------------------------------------------- *)

let e4 () =
  section "E4" "code size: conformance wrapper + state conversions vs everything else";
  let count = Base_util.Loc_count.count_path in
  if not (Sys.file_exists "lib") then
    print_endline "  (run from the repository root to measure sources)"
  else begin
    let wrapper = count "lib/wrapper" in
    let whole = count "lib" in
    let substrate =
      List.fold_left
        (fun acc d -> Base_util.Loc_count.add acc (count d))
        Base_util.Loc_count.zero
        [ "lib/bft"; "lib/base_core"; "lib/sim"; "lib/crypto"; "lib/codec" ]
    in
    let p fmt = Printf.printf fmt in
    p "  %-44s %8s %8s %8s\n" "component" "files" "lines" "semis";
    let row name (c : Base_util.Loc_count.counts) =
      p "  %-44s %8d %8d %8d\n" name c.Base_util.Loc_count.files c.Base_util.Loc_count.lines
        c.Base_util.Loc_count.semicolons
    in
    row "wrapper + state conversions (lib/wrapper)" wrapper;
    row "substrate (bft+core+sim+crypto+codec)" substrate;
    row "all libraries (lib/)" whole;
    p "\n";
    p "  paper:    wrapper + conversions = 1105 semicolons, two orders of\n";
    p "            magnitude less than the Linux 2.2 kernel (~1.7M lines)\n";
    p "  measured: wrapper = %d lines (%d semicolons), %.1fx smaller than the\n"
      wrapper.Base_util.Loc_count.lines wrapper.Base_util.Loc_count.semicolons
      (float_of_int whole.Base_util.Loc_count.lines
      /. float_of_int wrapper.Base_util.Loc_count.lines);
    p "            rest of this system, ~%.0fx smaller than Linux 2.2\n"
      (1_700_000.0 /. float_of_int wrapper.Base_util.Loc_count.lines)
  end

(* --- E5: proactive recovery & availability ------------------------------------- *)

let e5 () =
  section "E5" "availability during staggered proactive recovery";
  let duration_s = 16.0 and window_s = 1.0 in
  let _, base = Faults.throughput_trace ~duration_s ~window_s ~recovery:None () in
  let sys, recovered =
    Faults.throughput_trace ~duration_s ~window_s ~recovery:(Some (4_000_000, 100_000)) ()
  in
  let ops ws = List.map (fun (w : Faults.window) -> w.Faults.w_ops) ws in
  let tot ws = List.fold_left ( + ) 0 (ops ws) in
  let replicas = Array.to_list (Runtime.replicas sys.Systems.runtime) in
  let replica node =
    let rs = node.Runtime.recovery_stats in
    J.(obj
         [
           ("objects_fetched", Int rs.Runtime.fetched.St.objects_fetched);
           ("recoveries", Int rs.Runtime.recoveries);
           ("replica", Int node.Runtime.rid);
         ])
  in
  let window (a : Faults.window) b =
    J.(obj
         [
           ("ops_no_recovery", Int a.Faults.w_ops);
           ("ops_with_recovery", Int b);
           ("start_s", Float a.Faults.w_start_s);
         ])
  in
  let view_changes node = (Replica.stats node.Runtime.replica).Replica.view_changes in
  let cost = 100.0 *. (1.0 -. (float_of_int (tot recovered) /. float_of_int (tot base))) in
  (* The first and last windows are partial. *)
  let inner = List.filteri (fun i _ -> i > 0 && i < 15) (ops recovered) in
  let s =
    J.(obj
         [
           ("cost_pct", Float cost);
           ("object_slots", Int (Objrepo.n_objects (List.hd replicas).Runtime.repo));
           ("ops_no_recovery", Int (tot base));
           ("ops_with_recovery", Int (tot recovered));
           ("replicas", List (List.map replica replicas));
           ("view_changes", Int (List.fold_left (fun acc n -> acc + view_changes n) 0 replicas));
           ("windows", List (List.map2 window base (ops recovered)));
           ("worst_window_ops", Int (List.fold_left Int.min max_int inner));
         ])
  in
  table
    [
      ("window(s)", "start_s", 9, fixed 1);
      ("no-recovery ops", "ops_no_recovery", 17, text);
      ("with-recovery ops", "ops_with_recovery", 19, text);
    ]
    (items (get s "windows"));
  Printf.printf "\n  totals: %d ops without recovery, %d with (%.1f%% throughput cost)\n"
    (geti s "ops_no_recovery") (geti s "ops_with_recovery") (getf s "cost_pct");
  Printf.printf "  worst window with recovery: %d ops (service never unavailable)\n"
    (geti s "worst_window_ops");
  Printf.printf
    "\n  per-replica recovery cost (hierarchical state transfer, of %d object slots):\n"
    (geti s "object_slots");
  table
    [
      ("replica", "replica", 7, text);
      ("recoveries", "recoveries", 10, text);
      ("objects-fetched", "objects_fetched", 15, text);
    ]
    (items (get s "replicas"));
  Printf.printf "  view changes, summed over replicas: %d\n" (geti s "view_changes");
  Printf.printf
    "  paper: recoveries are staggered so the service stays available and a\n\
    \  recovering replica fetches only out-of-date objects - both visible above.\n";
  (* A recovered replica that waits for its status timer to catch up
     leaves too few up-to-date replicas at the next reboot, and the
     client's retransmission timer then shows here: without the catch-up
     STATUS this read 19.1 %. *)
  assert (getf s "cost_pct" <= 12.0);
  (* Staggered recovery keeps the group in its view.  A progress timer
     that outlives its replica's reboot made 3-17 lone view changes per
     seed here (14 on this one). *)
  assert (geti s "view_changes" = 0);
  s

(* --- E6: opportunistic N-version programming ------------------------------------ *)

let e6 () =
  section "E6" "deterministic software bug: heterogeneous vs homogeneous replicas";
  let row hetero =
    let o = Faults.poison_experiment ~hetero () in
    J.(obj
         [
           ("buggy_replicas", Int o.Faults.buggy_replicas);
           ("configuration", Str o.Faults.configuration);
           ("divergent", Int o.Faults.divergent);
           ("read_back_correct", Bool o.Faults.read_back_correct);
         ])
  in
  let s = List.map row [ true; false ] in
  table
    [
      ("configuration", "configuration", -36, text);
      ("buggy", "buggy_replicas", 5, text);
      ("correct-read", "read_back_correct", 12, text);
      ("divergent", "divergent", 9, text);
    ]
    s;
  Printf.printf
    "\n\
     paper: running distinct off-the-shelf implementations reduces the\n\
     probability of common-mode failures - with 4 distinct implementations\n\
     the bug is outvoted; with 4 identical ones it corrupts the data on\n\
     every replica and the wrong result is served with a full quorum.\n";
  J.List s

(* --- E7: checkpointing & hierarchical state-transfer costs ---------------------- *)

let synthetic_repo ~n_objects ~obj_bytes ~seed =
  let prng = Base_util.Prng.create seed in
  let store =
    Array.init n_objects (fun _ -> Bytes.to_string (Base_util.Prng.bytes prng obj_bytes))
  in
  let wrapper =
    {
      Service.name = "synthetic";
      n_objects;
      execute = (fun ~client:_ ~operation:_ ~nondet:_ ~read_only:_ ~modify:_ -> "");
      get_obj = (fun i -> store.(i));
      put_objs = (fun objs -> List.iter (fun (i, v) -> store.(i) <- v) objs);
      restart = (fun () -> ());
      propose_nondet = (fun ~clock_us:_ ~operation:_ -> "");
      check_nondet = (fun ~clock_us:_ ~operation:_ ~nondet:_ -> true);
      oids_of_op = Service.no_footprint;
    }
  in
  (store, Objrepo.create ~wrapper ~branching:16 ())

(* Drive a fetch to completion over a direct in-process "network" with a
   single source replica. *)
let run_transfer ~src ~dst ~target_seq ~target_digest =
  let q = Queue.create () in
  let completed = ref false in
  let fetcher =
    St.start ~repo:dst ~sources:[ 0 ] ~target_seq ~target_digest
      ~send:(fun ~dst:_ m -> Queue.add m q)
      ~on_complete:(fun ~seq:_ ~app_root:_ ~client_rows:_ -> completed := true)
      ()
  in
  while not (Queue.is_empty q) do
    let m = Queue.pop q in
    match St.serve src m with
    | Some reply -> ignore (St.handle_reply fetcher ~from:0 reply)
    | None -> ()
  done;
  assert !completed;
  St.stats fetcher

let e7_transfer_sweep () =
  section "E7" "hierarchical state transfer: bytes fetched vs fraction of dirty objects";
  let n_objects = 1024 and obj_bytes = 1024 in
  let full_bytes = n_objects * obj_bytes in
  let row pct =
    let store_src, src = synthetic_repo ~n_objects ~obj_bytes ~seed:1L in
    let _store_dst, dst = synthetic_repo ~n_objects ~obj_bytes ~seed:1L in
    (* Same seed: identical states.  Dirty pct% of the source's objects. *)
    let prng = Base_util.Prng.create 42L in
    let dirty = max 1 (n_objects * pct / 100) in
    let order = Array.init n_objects Fun.id in
    Base_util.Prng.shuffle prng order;
    for k = 0 to dirty - 1 do
      let i = order.(k) in
      Objrepo.modify src i;
      store_src.(i) <- Bytes.to_string (Base_util.Prng.bytes prng obj_bytes)
    done;
    let root = Objrepo.take_checkpoint src ~seq:1 ~client_rows:[] in
    let target = Replica.checkpoint_digest ~app_digest:root ~client_rows:[] in
    let stats = run_transfer ~src ~dst ~target_seq:1 ~target_digest:target in
    J.(obj
         [
           ("bytes_fetched", Int stats.St.bytes_fetched);
           ("dirty_pct", Int pct);
           ("meta_fetched", Int stats.St.meta_fetched);
           ("objects_fetched", Int stats.St.objects_fetched);
           ( "vs_full_pct",
             Float (100.0 *. float_of_int stats.St.bytes_fetched /. float_of_int full_bytes) );
         ])
  in
  let s = List.map row [ 1; 5; 10; 25; 50; 100 ] in
  table
    [
      ("dirty%", "dirty_pct", -10, text);
      ("objs-fetched", "objects_fetched", -12, text);
      ("bytes-fetched", "bytes_fetched", -14, text);
      ("meta-msgs", "meta_fetched", -12, text);
      ("vs-full", "vs_full_pct", 9, fun v -> fixed 1 v ^ "%");
    ]
    s;
  Printf.printf
    "  paper: a replica recurses down the partition hierarchy and fetches only\n\
    \  the objects that are out of date - cost tracks the dirty fraction.\n";
  J.List s

(* One request ordered and executed by replica 0, the view-0 primary of a
   group with 256 registered clients, on a transport that drops what it
   sends: the client's REQUEST, then PREPAREs and COMMITs from replicas 1
   and 2, each sealed and received.  Nothing checkpoints (the period is
   beyond any run's length), so the log window never fills. *)
let replica_execute_round () =
  let module M = Base_bft.Message in
  let n_clients = 256 in
  let config =
    Base_bft.Types.make_config ~checkpoint_period:(1 lsl 30) ~log_window:(1 lsl 30) ~f:1
      ~n_clients ()
  in
  let chains = Base_crypto.Auth.create ~seed:7L ~n_principals:config.n_principals in
  let net =
    {
      M.send = (fun ~dst:_ _ -> ());
      set_timer = (fun ~after_us:_ _ -> 0);
      cancel_timer = (fun _ -> ());
      now_us = (fun () -> 0L);
    }
  in
  let app =
    {
      Replica.execute = (fun ~client:_ ~timestamp:_ ~operation:_ ~nondet:_ ~read_only:_ -> "ok");
      propose_nondet = (fun ~operation:_ -> "");
      check_nondet = (fun ~operation:_ ~nondet:_ -> true);
      ready = Replica.always_ready;
      take_checkpoint = (fun ~seq:_ ~client_rows:_ -> Base_crypto.Digest_t.zero);
      discard_checkpoints_below = (fun _ -> ());
      start_fetch = (fun ~seq:_ ~digest:_ -> ());
    }
  in
  let replica = Replica.create ~config ~id:0 ~keychain:chains.(0) ~net ~app () in
  let seq = ref 0 in
  fun () ->
    let k = !seq in
    incr seq;
    let client = config.n + (k mod n_clients) in
    let request =
      { M.client; timestamp = Int64.of_int (k / n_clients); operation = "op"; read_only = false }
    in
    let digest = Base_crypto.Digest_t.of_string (M.encode_batch [ request ] ~nondet:"") in
    let receive sender body =
      Replica.receive replica (M.seal chains.(sender) ~sender ~n_receivers:config.n body)
    in
    receive client (M.Request request);
    List.iter
      (fun r -> receive r (M.Prepare { view = 0; seq = k + 1; digest; replica = r }))
      [ 1; 2 ];
    List.iter
      (fun r -> receive r (M.Commit { view = 0; seq = k + 1; digest; replica = r }))
      [ 1; 2 ]

let e7_micro () =
  section "E7b" "micro-benchmarks (bechamel): crypto, checkpointing and message-path machinery";
  let open Bechamel in
  let data4k = String.make 4096 'x' in
  let store, repo = synthetic_repo ~n_objects:1024 ~obj_bytes:1024 ~seed:9L in
  let seq = ref 1 in
  let prng = Base_util.Prng.create 5L in
  let t_sha =
    Test.make ~name:"sha256-4KB" (Staged.stage (fun () -> Base_crypto.Sha256.digest data4k))
  in
  let t_sha64 =
    let data64 = String.make 64 'x' in
    Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Base_crypto.Sha256.digest data64))
  in
  let t_hmac =
    let key = String.make 32 'k' in
    let msg = String.make 256 'm' in
    Test.make ~name:"hmac-seal-256B" (Staged.stage (fun () -> Base_crypto.Hmac.mac ~key msg))
  in
  (* What the message path runs per authenticator entry: a MAC over a
     32-byte digest, and its check (session key cached after the first). *)
  let chains = Base_crypto.Auth.create ~seed:7L ~n_principals:2 in
  let digest32 = Base_crypto.Sha256.digest "body" in
  let t_mac =
    Test.make ~name:"auth-mac-32B"
      (Staged.stage (fun () -> Base_crypto.Auth.mac chains.(0) ~receiver:1 digest32))
  in
  let t_check =
    let mac = Base_crypto.Auth.mac chains.(0) ~receiver:1 digest32 in
    Test.make ~name:"auth-check-32B"
      (Staged.stage (fun () -> Base_crypto.Auth.check chains.(1) ~sender:0 digest32 ~mac))
  in
  let t_cow =
    Test.make ~name:"checkpoint-cow-1%dirty"
      (Staged.stage (fun () ->
           for _ = 1 to 10 do
             let i = Base_util.Prng.int prng 1024 in
             Objrepo.modify repo i;
             store.(i) <- Bytes.to_string (Base_util.Prng.bytes prng 1024)
           done;
           incr seq;
           ignore (Objrepo.take_checkpoint repo ~seq:!seq ~client_rows:[]);
           Objrepo.discard_below repo !seq))
  in
  let t_full =
    Test.make ~name:"checkpoint-full-copy"
      (Staged.stage (fun () ->
           (* The naive alternative: copy and hash the whole abstract state. *)
           ignore (Array.map (fun (s : string) -> String.sub s 0 (String.length s)) store);
           ignore (Base_crypto.Sha256.digest_list (Array.to_list store))))
  in
  (* One message between two nodes with no link faults: send, then the
     dispatch that hands it to a no-op handler. *)
  let t_engine =
    let engine =
      Engine.create
        { (Engine.default_config ~size_of:(fun _ -> 64) ~label_of:(fun _ -> "m")) with
          kind_of = (fun _ -> "m") }
    in
    Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
    Engine.add_node engine ~id:1 (fun ~src:_ _ -> ());
    Test.make ~name:"engine-send-dispatch"
      (Staged.stage (fun () ->
           Engine.send engine ~src:0 ~dst:1 ();
           Engine.step engine))
  in
  let t_execute =
    Test.make ~name:"replica-execute-256-clients" (Staged.stage (replica_execute_round ()))
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [ t_sha; t_sha64; t_hmac; t_mac; t_check; t_cow; t_full; t_engine; t_execute ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "  %-34s %12.0f ns/op\n" name est
      | Some [] | None -> Printf.printf "  %-34s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Printf.printf
    "  copy-on-write checkpoints cost a small multiple of the dirty set;\n\
    \  the full-copy alternative pays for the whole state every time.\n"

(* --- E8: agreement on non-deterministic timestamps ------------------------------ *)

let e8 () =
  section "E8" "non-determinism: divergent replica clocks, agreed timestamps";
  let sys = Systems.make_basefs ~hetero:true ~n_clients:1 () in
  let rt = sys.Systems.runtime in
  let nfs = Systems.nfs_client rt ~client:0 in
  let f, _ = C.ok (C.create nfs root_oid "stamped" sattr_empty) in
  ignore (C.ok (C.write nfs f ~off:0 "tick"));
  let a = C.ok (C.getattr nfs f) in
  let clock node =
    J.Float (Int64.to_float (Engine.local_clock (Runtime.engine rt) node.Runtime.rid) /. 1e6)
  in
  let s =
    J.(obj
         [
           ("agreed_mtime_s", Float (Int64.to_float a.mtime /. 1e6));
           ("divergent", Int (Faults.divergent_replicas rt));
           ("replica_clocks_s", List (List.map clock (Array.to_list (Runtime.replicas rt))));
           ("virtual_time_s", Float (Sim_time.to_sec (Runtime.now rt)));
         ])
  in
  Printf.printf "  virtual time now        : %.6f s\n" (getf s "virtual_time_s");
  Printf.printf "  replica local clocks    : %s s (skewed, drifting)\n"
    (String.concat " " (List.map (fixed 6) (items (get s "replica_clocks_s"))));
  Printf.printf "  agreed mtime of the file: %.6f s - identical at every replica\n"
    (getf s "agreed_mtime_s");
  Printf.printf "  abstract-state divergence across replicas: %d\n" (geti s "divergent");
  Printf.printf
    "  paper: time-last-modified comes from the agreement protocol, not the\n\
    \  server clocks, so replica states cannot diverge through timestamps.\n";
  s

(* --- E9: fault injection (corruption + repair) ----------------------------------- *)

let e9 () =
  section "E9" "fault injection: silent state corruption, masking and repair";
  let row k =
    let o = Faults.corruption_experiment ~corrupt_replicas:k ~objects_per_replica:4 () in
    J.(obj
         [
           ("corrupt_replicas", Int o.Faults.corrupt_replicas);
           ("divergent_after_repair", Int o.Faults.divergent_after_repair);
           ("objects_damaged", Int o.Faults.objects_damaged);
           ("objects_repaired", Int o.Faults.objects_repaired);
           ("reads_correct_before_repair", Bool o.Faults.reads_correct_before_repair);
         ])
  in
  let s = List.map row [ 1; 2 ] in
  table
    [
      ("corrupt-replicas", "corrupt_replicas", -18, text);
      ("damaged", "objects_damaged", -10, text);
      ("reads-correct", "reads_correct_before_repair", -14, text);
      ("repaired", "objects_repaired", -12, text);
      ("divergent-after", "divergent_after_repair", -16, text);
    ]
    s;
  Printf.printf
    "\n\
     paper (the fault-injection study it calls for): corrupt concrete states\n\
     are hidden by the abstraction, faulty replicas are outvoted, and\n\
     proactive recovery restores every replica to the group's abstract state.\n";
  J.List s

(* --- E10: the non-deterministic OODB ---------------------------------------------- *)

let e10 () =
  section "E10" "object database: same non-deterministic implementation at every replica";
  let open Base_oodb.Oodb_proto in
  let config =
    Base_bft.Types.make_config ~checkpoint_period:16 ~log_window:32 ~f:1 ~n_clients:1 ()
  in
  let engine_cell = ref None in
  let make_wrapper rid =
    let now () = match !engine_cell with Some e -> Engine.local_clock e rid | None -> 0L in
    Base_oodb.Oodb_wrapper.make ~seed:(Int64.of_int (7000 + rid)) ~now ~n_objects:128 ()
  in
  let sys = Runtime.create ~config ~make_wrapper ~n_clients:1 () in
  engine_cell := Some (Runtime.engine sys);
  let call c =
    decode_reply
      (Runtime.invoke_sync sys ~client:0 ~read_only:(read_only_call c)
         ~operation:(encode_call c) ())
  in
  let objs = List.init 20 (fun _ -> match call New with R_oid o -> o | _ -> failwith "new") in
  List.iteri (fun i o -> ignore (call (Set_field (o, "n", string_of_int i)))) objs;
  List.iteri
    (fun i o -> if i > 0 then ignore (call (Set_ref (List.nth objs (i - 1), "next", o))))
    objs;
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:1_000_000 sys;
  for i = 0 to 19 do
    ignore (call (Set_field (List.nth objs (i mod 20), "touched", string_of_int i)));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 150))
  done;
  (* Let the last recovery's repair land before inspecting the group. *)
  Engine.run
    ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 3.0))
    (Runtime.engine sys);
  (* The count is a call through the group, so it runs before the group is
     inspected. *)
  let count = match call Count with R_count n -> n | _ -> -1 in
  let recoveries node = node.Runtime.recovery_stats.Runtime.recoveries in
  let s =
    J.(obj
         [
           ("divergent", Int (Faults.divergent_replicas sys));
           ("objects", Int count);
           ( "recoveries",
             Int (Array.fold_left (fun acc n -> acc + recoveries n) 0 (Runtime.replicas sys)) );
         ])
  in
  Printf.printf "  objects stored: %d (plus root)\n" (geti s "objects");
  Printf.printf "  proactive recoveries completed: %d\n" (geti s "recoveries");
  Printf.printf "  replicas diverging from majority abstract state: %d\n" (geti s "divergent");
  Printf.printf
    "  paper (abstract): an OODB whose replicas run the same non-deterministic\n\
    \  implementation - random internal oids, local clocks - masked by BASE.\n";
  s

(* --- E11: request batching under concurrent load --------------------------------- *)

(* Consensus instances and requests executed, at the replica furthest on. *)
let executed rt =
  Array.fold_left
    (fun (i, r) node ->
      let st = Replica.stats node.Runtime.replica in
      (max i st.Replica.executed, max r st.Replica.executed_requests))
    (0, 0) (Runtime.replicas rt)

let e11 () =
  section "E11" "request batching: throughput with 16 concurrent clients";
  let run (label, batch_max, max_inflight) =
    let sys =
      Systems.make_basefs ~seed:8L ~hetero:true ~checkpoint_period:128 ~n_clients:16
        ~batch_max ~max_inflight ()
    in
    let rt = sys.Systems.runtime in
    let engine = Runtime.engine rt in
    (* One private file per client, created synchronously. *)
    let files =
      List.init 16 (fun c ->
          let nfs = Systems.nfs_client rt ~client:c in
          let fh, _ = C.ok (C.create nfs root_oid (Printf.sprintf "cl%d" c) sattr_empty) in
          fh)
    in
    let msgs0 = (Engine.total_counters engine).Engine.sent_msgs in
    let completed = ref 0 in
    let payload = String.make 128 'b' in
    let rec issue c fh =
      Runtime.invoke rt ~client:c
        ~operation:(Base_nfs.Nfs_proto.encode_call (Base_nfs.Nfs_proto.Write (fh, 0, payload)))
        (fun _ ->
          incr completed;
          issue c fh)
    in
    List.iteri issue files;
    let stop = Sim_time.add (Runtime.now rt) (Sim_time.of_sec 1.0) in
    Engine.run ~until:stop engine;
    let instances, requests = executed rt in
    let msgs = (Engine.total_counters engine).Engine.sent_msgs - msgs0 in
    J.(obj
         [
           ("avg_batch", Float (float_of_int requests /. float_of_int (max 1 instances)));
           ("config", Str label);
           ("instances", Int instances);
           ("msgs", Int msgs);
           ("msgs_per_op", Float (float_of_int msgs /. float_of_int (max 1 !completed)));
           ("ops", Int !completed);
         ])
  in
  let s =
    List.map run
      [
        ("unbatched (b=1,w=1)", 1, 1);
        ("pipelined (b=1,w=8)", 1, 8);
        ("batched (b=16,w=2)", 16, 2);
      ]
  in
  table
    [
      ("config", "config", -22, text);
      ("ops", "ops", 10, text);
      ("instances", "instances", 12, text);
      ("avg-batch", "avg_batch", 12, fixed 2);
      ("msgs", "msgs", 12, text);
      ("msgs/op", "msgs_per_op", 10, fixed 1);
    ]
    s;
  Printf.printf
    "  batching amortises agreement: fewer consensus instances and fewer\n\
    \  protocol messages per completed request at the same offered load.\n";
  J.List s

(* --- E12: the observability export ---------------------------------------------------- *)

(* A second run with the same seed in the same process must export the same
   bytes.  CI's double run compares two processes; this also catches state
   that one run leaks into the next. *)
let same_seed_rerun id report report2 =
  if not (String.equal (J.to_string_pretty report) (J.to_string_pretty report2)) then
    failwith (id ^ ": a same-seed re-run exported different bytes");
  Printf.printf "  same-seed re-run: byte-identical\n"

(* One loaded run with proactive recovery on, exporting the full
   observability report.  Everything in the JSON is a function of the seed
   (virtual clock, sorted keys, canonical floats), so the file is the
   regression artifact CI diffs across two consecutive runs. *)
let e12_run ?profile seed =
  (* checkpoint_period 16 so a ~50-instance run crosses several checkpoint
     boundaries: the cadence histogram fills, CHECKPOINT traffic shows up in
     the label table, and recoveries have certified targets to fetch. *)
  let sys =
    Systems.make_basefs ~seed ~hetero:true ~checkpoint_period:16 ~n_clients:1 ?profile ()
  in
  let rt = sys.Systems.runtime in
  Runtime.enable_proactive_recovery ~reboot_us:100_000 ~period_us:2_000_000 rt;
  let nfs = Systems.nfs_client rt ~client:0 in
  let f, _ = C.ok (C.create nfs root_oid "obs" sattr_empty) in
  for i = 1 to 50 do
    ignore (C.ok (C.write nfs f ~off:(i * 16) (String.make 64 'o')))
  done;
  (* Let every replica complete at least one recovery round. *)
  Engine.run
    ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 9.0))
    (Runtime.engine rt);
  rt

let e12 () =
  section "E12" "observability: phase metrics, traffic breakdown, recovery timelines";
  let seed = 11L in
  let rt = e12_run seed in
  let report = Runtime.metrics_report rt in
  Format.printf "%a" Base_obs.Metrics.pp (Runtime.metrics rt);
  Printf.printf "\n  traffic by message type:\n";
  table
    [
      ("label", "label", -14, text);
      ("sent", "sent_msgs", 10, text);
      ("sent-bytes", "sent_bytes", 14, text);
      ("recv", "recv_msgs", 10, text);
      ("drop", "dropped_msgs", 8, text);
    ]
    (List.map
       (fun (label, c) -> with_field "label" (J.Str label) c)
       (fields (get (get report "net") "labels")));
  let episodes = items (get report "recoveries") in
  let fetch_ms =
    List.filter_map
      (fun e ->
        match (get e "handoff_us", get e "window_us") with
        | J.Int handoff, J.Int window -> Some (float_of_int (window - handoff) /. 1e3)
        | _ -> None)
      episodes
  in
  Printf.printf "\n  recoveries: %d episodes; fetch phase (ms) %s\n" (List.length episodes)
    (Format.asprintf "%a" Base_util.Stats.pp_summary (Base_util.Stats.summarize fetch_ms));
  same_seed_rerun "E12" report (Runtime.metrics_report (e12_run seed));
  report

(* --- E13: chaos sweep -------------------------------------------------------------- *)

let e13_run seed =
  let sys, o = Faults.chaos_experiment ~seed () in
  (Runtime.metrics_report sys.Systems.runtime, o)

let e13 () =
  section "E13" "chaos sweep: scheduled faults and a Byzantine primary under load";
  let seed = 21L in
  let report, o = e13_run seed in
  Printf.printf "  fault plan (canonical form):\n";
  String.split_on_char '\n' (Base_sim.Faultplan.to_string o.Faults.ch_plan)
  |> List.iter (fun l -> if not (String.equal l "") then Printf.printf "    %s\n" l);
  Printf.printf "\n  writes: %d attempted, %d completed, %d liveness stalls\n" o.Faults.ch_ops
    o.Faults.ch_completed o.Faults.ch_stalls;
  Printf.printf "  reads : %d checked, %d linearizability violations\n" o.Faults.ch_read_checks
    o.Faults.ch_read_errors;
  Printf.printf "  view changes completed: %d (latencies in bft.view_change_us)\n"
    o.Faults.ch_view_changes;
  Printf.printf "  equivocation detected : %d conflicting-digest observations\n"
    o.Faults.ch_equivocations;
  Printf.printf "  adversary             : %d pre-prepares muted, %d messages corrupted\n"
    o.Faults.ch_pp_muted o.Faults.ch_corrupted;
  Printf.printf "  divergent replicas after settling: %d\n" o.Faults.ch_divergent;
  (* The acceptance criteria: the group survives every scheduled window plus
     the misbehaving primary without losing liveness or linearizability, and
     the missing view-change path actually ran. *)
  assert (o.Faults.ch_stalls = 0 && o.Faults.ch_completed = o.Faults.ch_ops);
  assert (o.Faults.ch_read_errors = 0);
  assert (o.Faults.ch_view_changes > 0);
  assert (o.Faults.ch_equivocations > 0);
  Printf.printf "  liveness and read linearizability held throughout the storm\n";
  same_seed_rerun "E13" report (fst (e13_run seed));
  report

(* --- E14: recovery under load with the pipelined state transfer --------------------- *)

(* One seeded recovery-under-load episode.  A client lays down a few dozen
   files and, after a checkpoint boundary, overwrites most of them — so the
   recovering replica's state has moved past the last certified checkpoint
   and those objects must roll back to it.  Replica 1 then goes through
   proactive recovery while a second client keeps writing in the
   background; the episode ends when the recovery fetch completes.
   [st_window = 1] degenerates the fetcher to the old serial
   one-request-at-a-time behaviour — the control the pipelined run is
   compared against.  The deliberately small leaf cache means only the most
   recently rolled-back objects hit it; the rest are fetched over the
   network, striped across the three live sources. *)
let e14_files = 32

let e14_run ~st_window seed =
  let sys =
    Systems.make_basefs ~seed ~hetero:true ~checkpoint_period:64 ~n_clients:2 ~st_window
      ~st_cache_objs:8 ()
  in
  let rt = sys.Systems.runtime in
  let engine = Runtime.engine rt in
  let nfs = Systems.nfs_client rt ~client:0 in
  (* Phase 1 (~65 requests, crossing the k=64 checkpoint boundary): create
     the working set — each file holds ~6 KB, larger than one 4 KB chunk. *)
  let files =
    List.init e14_files (fun i ->
        let fh, _ = C.ok (C.create nfs root_oid (Printf.sprintf "f%02d" i) sattr_empty) in
        ignore (C.ok (C.write nfs fh ~off:0 (String.make 6000 'a')));
        fh)
  in
  (* Phase 2: overwrite most files past the certified checkpoint.  The
     modify upcall records each file's checkpointed value in the leaf
     cache as it is first dirtied. *)
  List.iteri
    (fun i fh ->
      if i < 24 then ignore (C.ok (C.write nfs fh ~off:2048 (String.make 300 'z'))))
    files;
  (* Phase 3: background load for the whole recovery — client 1 keeps
     dirtying its own files so the fetch happens on a moving, loaded
     system. *)
  let nfs1 = Systems.nfs_client rt ~client:1 in
  let g, _ = C.ok (C.create nfs1 root_oid "bg" sattr_empty) in
  let stop_load = ref false in
  let tick = ref 0 in
  let rec issue () =
    if not !stop_load then begin
      incr tick;
      Runtime.invoke rt ~client:1
        ~operation:
          (Base_nfs.Nfs_proto.encode_call
             (Base_nfs.Nfs_proto.Write (g, !tick mod 8 * 700, String.make 256 'b')))
        (fun _ -> issue ())
    end
  in
  issue ();
  (* A short reboot: the group executes only a handful of requests while
     the replica is down, so the certified checkpoint it targets is still
     held by the sources when the fetch starts. *)
  Runtime.recover_now ~reboot_us:5_000 rt 1;
  let fetched () =
    List.exists
      (fun tl -> tl.Runtime.tl_rid = 1 && Runtime.timeline_window_us tl <> None)
      (Runtime.recovery_timelines rt)
  in
  let events = ref 0 in
  while (not (fetched ())) && !events < 3_000_000 && Engine.step engine do
    incr events
  done;
  assert (fetched ());
  stop_load := true;
  Runtime.run_until_idle rt;
  rt

let e14_rebuild_us rt =
  List.find_map
    (fun tl ->
      if tl.Runtime.tl_rid <> 1 then None
      else
        match (Runtime.timeline_handoff_us tl, Runtime.timeline_window_us tl) with
        | Some handoff, Some window -> Some (window - handoff)
        | _ -> None)
    (Runtime.recovery_timelines rt)
  |> Option.get

let e14_report rt =
  let open J in
  let m = Runtime.metrics rt in
  let cnt name = Base_obs.Metrics.counter_value (Base_obs.Metrics.counter m name) in
  let st = Runtime.st_totals rt in
  let sources = List.filter (fun r -> r <> 1) (Base_bft.Types.replica_ids (Runtime.config rt)) in
  obj
    [
      ("bytes_fetched", Int st.St.bytes_fetched);
      ("cache_hits", Int st.St.cache_hits);
      ("chunks_fetched", Int st.St.chunks_fetched);
      ("meta_fetched", Int st.St.meta_fetched);
      ("objects_fetched", Int st.St.objects_fetched);
      ( "peak_inflight",
        Int
          (int_of_float
             (Base_obs.Metrics.gauge_value (Base_obs.Metrics.gauge m "base.st.inflight"))) );
      ("quarantines", Int st.St.quarantines);
      ("rebuild_us", Int (e14_rebuild_us rt));
      ( "source_bytes",
        obj
          (List.map
             (fun rid ->
               (string_of_int rid, Int (cnt (Printf.sprintf "base.st.source_bytes.%d" rid))))
             sources) );
    ]

let e14 () =
  section "E14" "recovery under load: windowed load-spread fetch vs serial control";
  let seed = 31L in
  let pipelined = e14_report (e14_run ~st_window:8 seed) in
  let serial = e14_report (e14_run ~st_window:1 seed) in
  let s = J.obj [ ("pipelined", pipelined); ("window1", serial) ] in
  table
    [
      ("mode", "mode", -18, text);
      ("rebuild(ms)", "rebuild_us", 11, fun v -> Printf.sprintf "%.1f" (num v /. 1e3));
      ("objs", "objects_fetched", 4, text);
      ("bytes", "bytes_fetched", 7, text);
      ("cache-hits", "cache_hits", 10, text);
      ("inflight-peak", "peak_inflight", 13, text);
      ( "bytes per source",
        "source_bytes",
        0,
        fun v -> String.concat " " (List.map (fun (r, b) -> "r" ^ r ^ "=" ^ text b) (fields v)) );
    ]
    [
      with_field "mode" (J.Str "pipelined (w=8)") pipelined;
      with_field "mode" (J.Str "serial (w=1)") serial;
    ];
  let fast = geti pipelined "rebuild_us" and slow = geti serial "rebuild_us" in
  Printf.printf "\n  rebuild speedup vs serial control: %.2fx\n"
    (float_of_int slow /. float_of_int fast);
  (* The acceptance criteria: the pipeline spreads load over several
     sources, reuses cached leaves, and beats the serial fetcher. *)
  assert (geti pipelined "cache_hits" > 0);
  let busy_sources =
    List.filter (fun (_, b) -> num b > 0.0) (fields (get pipelined "source_bytes"))
  in
  assert (List.length busy_sources >= 2);
  assert (fast < slow);
  s

(* --- E15: open-loop saturation: offered load vs delivered throughput ---------------- *)

(* The saturation experiment the closed-loop E11 cannot run: a Poisson
   open-loop injector (Base_workload.Load) offers a configured load to the
   stamp-free registers service, independent of completions, and we read off
   where delivered throughput stops tracking offered load.  Pipelining is
   disabled (max_inflight = 1) so the ceiling is the sequential consensus
   instance rate and batching is the only amortisation under test: batch_max
   = 64 must lift the saturation ceiling well past the unbatched one.  The
   workload is 1/4 writes, 3/4 reads; with the read-only fast path on, the
   reads answer tentatively in one round and skip consensus entirely. *)
module Load = Base_workload.Load

let e15_rates = [ 1_000.0; 2_000.0; 4_000.0; 8_000.0; 16_000.0; 32_000.0 ]

let e15_duration_us = 500_000

let e15_pool = 256

(* The registers mix E15-E17 offer: one write in four, the rest reads. *)
let mixed_op i =
  if i land 3 = 0 then Printf.sprintf "set:%d:v%d" (i * 5 mod 256) i
  else Printf.sprintf "get:%d" (i * 7 mod 256)

(* Run [load] to completion; the fields of an open-loop point it fills. *)
let load_point id load =
  (match Load.run load with Ok () -> () | Error e -> failwith (id ^ ": " ^ e));
  let s = Load.stats load in
  let q = Base_obs.Metrics.quantile s.Load.latency_us in
  J.
    [
      ("completed", Int s.Load.completed);
      ("p50_us", Float (q 0.5));
      ("p99_us", Float (q 0.99));
      ("shed", Int s.Load.shed);
      ("throughput_per_s", Float (Load.throughput_per_s load));
    ]

let load_cols =
  [
    ("completed/s", "throughput_per_s", 14, fixed 1);
    ("p50(us)", "p50_us", 12, fixed 0);
    ("p99(us)", "p99_us", 12, fixed 0);
    ("shed", "shed", 8, text);
  ]

let e15_run ~batch_max ~ro ~rate =
  let sys =
    Systems.make_registers ~seed:51L ~n_clients:e15_pool ~n_objects:256
      ~checkpoint_period:128 ~batch_max ~max_inflight:1 ()
  in
  let rt = sys.Systems.reg_runtime in
  let load =
    Load.create ~seed:17L ~arrivals:Load.Poisson ~max_backlog:2_000 ~operation:mixed_op
      ~read_only:(fun i -> ro && i land 3 <> 0)
      ~rate_per_s:rate ~duration_us:e15_duration_us rt
  in
  let point = load_point "E15" load in
  let instances, requests = executed rt in
  (* occupancy: mean requests per consensus instance *)
  J.(obj
       (("occupancy", Float (float_of_int requests /. float_of_int (max 1 instances)))
       :: ("offered_per_s", Float rate)
       :: point))

let e15 () =
  section "E15" "open-loop saturation: throughput vs offered load, by batch size";
  let key (batch_max, ro) = Printf.sprintf "batch%d%s" batch_max (if ro then "_ro" else "") in
  let grid = List.concat_map (fun b -> [ (b, false); (b, true) ]) [ 1; 16; 64 ] in
  let sweep (batch_max, ro) =
    J.List (List.map (fun rate -> e15_run ~batch_max ~ro ~rate) e15_rates)
  in
  let s = J.obj (List.map (fun g -> (key g, sweep g)) grid) in
  List.iter
    (fun ((batch_max, ro) as g) ->
      Printf.printf "\n  batch_max=%-3d read-only fast path %s\n" batch_max
        (if ro then "ON " else "off");
      table
        (("offered/s", "offered_per_s", 12, fixed 0) :: List.hd load_cols
        :: ("avg-batch", "occupancy", 10, fixed 2) :: List.tl load_cols)
        (items (get s (key g))))
    grid;
  let points g = items (get s (key g)) in
  let sat b =
    List.fold_left (fun m p -> Float.max m (getf p "throughput_per_s")) 0.0 (points (b, false))
  in
  let total_completed =
    List.fold_left (fun acc p -> acc + geti p "completed") 0 (List.concat_map points grid)
  in
  Printf.printf "\n  saturation (ordered ops): b=1 %.0f/s, b=16 %.0f/s, b=64 %.0f/s\n" (sat 1)
    (sat 16) (sat 64);
  Printf.printf "  total requests completed across the sweep: %d\n" total_completed;
  (* Acceptance criteria: the sweep is big enough to mean something, and
     batching actually lifts the saturation ceiling. *)
  assert (total_completed >= 100_000);
  assert (sat 64 >= 3.0 *. sat 1);
  Printf.printf
    "  batching amortises the per-instance agreement cost: the saturation\n\
    \  ceiling scales with batch size while pre-saturation latency stays flat.\n";
  s

(* The recovery analogue of E15's saturation question: what does proactive
   recovery cost the service while it runs?  The same open-loop injector
   offers a fixed load while the recovery watchdog rolls through the
   replica slots, once rebooting in place (classic BASE/PBFT proactive
   recovery) and once promoting warm standbys from the n+s pool (migration,
   after Zhao's proactive service migration).  The window of vulnerability —
   recovery start to fully recovered state — shrinks from reboot-dominated
   to handshake-dominated, and tail latency under churn must not get
   worse. *)

let e16_rate = 1_000.0

let e16_duration_us = 2_500_000

let mean = function
  | [] -> 0.0
  | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let e16_run ~migrate =
  let sys =
    Systems.make_registers ~seed:52L ~standbys:2 ~checkpoint_period:32 ~n_objects:256
      ~n_clients:40 ()
  in
  let rt = sys.Systems.reg_runtime in
  (* Warm-up: cross checkpoint boundaries so the pool has a certified
     watermark to shadow-sync before the first roll. *)
  for i = 0 to 63 do
    ignore
      (Runtime.invoke_sync rt ~client:(i mod 40)
         ~operation:(Printf.sprintf "set:%d:w%d" (i * 3 mod 256) i)
         ())
  done;
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 1.0)) (Runtime.engine rt);
  Runtime.enable_proactive_recovery ~migrate ~reboot_us:400_000 ~promote_us:20_000
    ~period_us:2_000_000 rt;
  let load =
    Load.create ~seed:19L ~arrivals:Load.Poisson ~max_backlog:2_000 ~operation:mixed_op
      ~rate_per_s:e16_rate ~duration_us:e16_duration_us rt
  in
  (match Load.run load with Ok () -> () | Error e -> failwith ("E16: " ^ e));
  (* Stop the watchdog and let in-flight episodes close before reading the
     timelines. *)
  Runtime.disable_proactive_recovery rt;
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 2.0)) (Runtime.engine rt);
  let s = Load.stats load in
  let counter name =
    Base_obs.Metrics.counter_value (Base_obs.Metrics.counter (Runtime.metrics rt) name)
  in
  let episodes = Runtime.recovery_timelines rt in
  let opt = function Some v -> J.Int v | None -> J.Null in
  let episode tl =
    J.(obj
         [
           ("handoff_us", opt (Runtime.timeline_handoff_us tl));
           ("migrated", Bool tl.Runtime.tl_migrated);
           ("rid", Int tl.Runtime.tl_rid);
           (* migration: seqnos the promoted state trailed by *)
           ( "staleness_seqs",
             opt
               (if tl.Runtime.tl_migrated && tl.Runtime.tl_staleness_seqs >= 0 then
                  Some tl.Runtime.tl_staleness_seqs
                else None) );
           (* start -> fetch done *)
           ("window_us", opt (Runtime.timeline_window_us tl));
         ])
  in
  let promotions acc node =
    match node.Runtime.standby with Some ss -> acc + ss.Runtime.ss_promotions | None -> acc
  in
  let q = Base_obs.Metrics.quantile s.Load.latency_us in
  J.(obj
       [
         ("completed", Int s.Load.completed);
         ("episodes", List (List.map episode episodes));
         (* handoff: slot dark time, the reboot or the promote handshake *)
         ("mean_handoff_us", Float (mean (List.filter_map Runtime.timeline_handoff_us episodes)));
         ("mean_window_us", Float (mean (List.filter_map Runtime.timeline_window_us episodes)));
         ("p50_us", Float (q 0.5));
         ("p99_us", Float (q 0.99));
         ("promotions", Int (List.fold_left promotions 0 (Runtime.all_cells rt)));
         ("promotions_aborted", Int (counter "base.standby.promotions_aborted"));
         ("rounds_skipped", Int (counter "base.standby.rounds_skipped"));
       ])

(* The values of [field] over the episodes that set it. *)
let episode_ints field episodes =
  List.filter_map (fun e -> match get e field with J.Int v -> Some v | _ -> None) (items episodes)

let e16 () =
  section "E16"
    "migration-based recovery: window of vulnerability, warm standbys vs reboot in place";
  let inplace = e16_run ~migrate:false in
  let mig = e16_run ~migrate:true in
  let windows episodes = List.length (episode_ints "window_us" episodes) in
  table
    [
      ("mode", "mode", -12, text);
      ("episodes", "episodes", 9, fun v -> string_of_int (windows v));
      ("handoff(us)", "mean_handoff_us", 14, fixed 0);
      ("window(us)", "mean_window_us", 14, fixed 0);
      ("p50(us)", "p50_us", 12, fixed 0);
      ("p99(us)", "p99_us", 12, fixed 0);
      ("completed", "completed", 10, text);
    ]
    [ with_field "mode" (J.Str "in-place") inplace; with_field "mode" (J.Str "migration") mig ];
  Printf.printf "  migration: %d promotions, %d aborted, %d rounds skipped, staleness %s seqs\n"
    (geti mig "promotions") (geti mig "promotions_aborted") (geti mig "rounds_skipped")
    (match episode_ints "staleness_seqs" (get mig "episodes") with
    | [] -> "-"
    | l -> Printf.sprintf "%.1f mean" (mean l));
  (* Acceptance criteria: both modes completed full rolls under load; the
     promoted state was genuinely warm (bounded staleness); migration cuts
     the mean window of vulnerability at least fivefold and does not
     degrade the latency tail. *)
  assert (windows (get inplace "episodes") >= 4);
  assert (geti mig "promotions" >= 4);
  assert (getf mig "mean_window_us" <= getf inplace "mean_window_us" /. 5.0);
  assert (getf mig "p99_us" <= getf inplace "p99_us");
  Printf.printf
    "  a warm standby turns recovery from reboot-plus-refetch into a key handoff:\n\
    \  the slot is dark for the handshake only, and the catch-up fetch runs on\n\
    \  state that is already behind the certified watermark by seconds, not epochs.\n";
  J.obj [ ("inplace", inplace); ("migration", mig) ]

(* --- E17: hot-path profile and the million-request scale run ------------------------ *)

(* The profiling harness built for the hot-path overhaul (doc/profiling.md):
   every replica, client and the engine share one [Base_obs.Profile], whose
   probes bracket the protocol phases (bft.verify/seal/handle/execute,
   client.verify/seal, engine.send/dispatch).  The nanosecond clock is
   injected here — the libraries never read wall time — and only the
   deterministic part of the export (call counts, allocation deltas) goes
   into the blessed file; the timing table below is for humans. *)

let e17_profile () =
  let p = Base_obs.Profile.create ~now_ns:Monotonic_clock.now () in
  Base_obs.Profile.enable p;
  p

let print_profile p = Format.printf "%a%!" Base_obs.Profile.pp p

(* A million-request E15-style run: the open-loop injector against the
   stamp-free registers service with the read-only fast path and b=64
   batching — the configuration E15 shows saturating highest — driven hard
   enough to push one million completed requests through the full protocol
   stack in one run.  This is the scale claim for the hot-path overhaul:
   digest memoisation, batch MACs, slice decoding and the flat event heap
   are what make this run fit a CI budget. *)
let e17_scale_rate = 40_000.0

let e17_scale_duration_us = 26_000_000

let e17_scale profile =
  let sys =
    Systems.make_registers ~seed:53L ~n_clients:e15_pool ~n_objects:256
      ~checkpoint_period:128 ~batch_max:64 ~max_inflight:1 ~profile ()
  in
  let rt = sys.Systems.reg_runtime in
  let load =
    Load.create ~seed:23L ~arrivals:Load.Poisson ~max_backlog:2_000 ~operation:mixed_op
      ~read_only:(fun i -> i land 3 <> 0)
      ~rate_per_s:e17_scale_rate ~duration_us:e17_scale_duration_us rt
  in
  (match Load.run load with
  | Ok () -> ()
  | Error e -> failwith ("E17: " ^ e));
  let s = Load.stats load in
  (rt, s)

let e17_probe_names =
  [
    "bft.verify"; "bft.seal"; "bft.handle"; "bft.execute";
    "client.verify"; "client.seal"; "engine.send"; "engine.dispatch";
  ]

let assert_probes_fired profs =
  List.iter
    (fun prof ->
      List.iter
        (fun name ->
          let probe = Base_obs.Profile.probe prof name in
          assert (Base_obs.Profile.probe_calls probe > 0))
        e17_probe_names)
    profs

(* The blessed observability workload (same seed as E12), probes on: where
   do its cycles and allocations go? *)
let e17_profiled_e12 () =
  let p12 = e17_profile () in
  let wall0 = Monotonic_clock.now () in
  ignore (e12_run ~profile:p12 11L);
  let e12_wall_ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) wall0) /. 1e6 in
  Printf.printf "  E12 workload under the profiler (%.0f ms wall):\n\n" e12_wall_ms;
  print_profile p12;
  p12

(* Sub-second CI smoke for the profiling harness: probes attach, fire on
   every protocol phase, and the deterministic export is well-formed —
   without paying for the E17 scale run. *)
let e17_smoke () =
  section "E17-SMOKE" "profiling harness smoke: probes fire on every phase";
  let p12 = e17_profiled_e12 () in
  assert_probes_fired [ p12 ];
  ignore (J.to_string_pretty (Base_obs.Profile.to_json ~deterministic:true p12));
  Printf.printf "\n  all %d probes fired; deterministic export OK\n"
    (List.length e17_probe_names)

let e17 () =
  section "E17" "hot-path profile: phase costs, and one million requests in one run";
  let p12 = e17_profiled_e12 () in
  (* The scale run. *)
  let psc = e17_profile () in
  let wall1 = Monotonic_clock.now () in
  let rt, s = e17_scale psc in
  let scale_wall_s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) wall1) /. 1e9 in
  let sent = (Engine.total_counters (Runtime.engine rt)).Engine.sent_msgs in
  Printf.printf "\n  scale run: %d requests completed (%d shed) in %.1f s wall\n"
    s.Load.completed s.Load.shed scale_wall_s;
  Printf.printf "  %d protocol messages; %.0f requests/s of wall time\n\n" sent
    (float_of_int s.Load.completed /. scale_wall_s);
  print_profile psc;
  (* Acceptance criteria: a genuinely million-request run, and the probes
     saw every protocol phase actually firing on both workloads. *)
  assert (s.Load.completed >= 1_000_000);
  assert_probes_fired [ p12; psc ];
  J.obj
    [
      ("e12_profile", Base_obs.Profile.to_json ~deterministic:true p12);
      ("scale_completed", J.Int s.Load.completed);
      ("scale_profile", Base_obs.Profile.to_json ~deterministic:true psc);
      ("scale_shed", J.Int s.Load.shed);
    ]

(* --- E18: shard scaling over the abstract object space ----------------------------- *)

(* The sharding question: with the abstract object space split across S
   independent agreement instances (distinct primaries over the same 3f+1
   nodes), does aggregate ordered throughput scale with S?  Pipelining is
   off (max_inflight = 1) so each shard's ceiling is its sequential
   consensus-instance rate times the batch size, and adding shards is the
   only parallelism under test.  Two oid distributions drive the same
   Andrew-style 50/50 read-write mix of single-object operations
   (conflict-free by construction — no footprint crosses a shard):

   - uniform: a coprime stride spreads arrivals evenly over the contiguous
     shard ranges; aggregate throughput must scale (S=4 at least twice S=1).
   - hot-spot: 90% of arrivals hit the first n/8 oids, which contiguous
     sharding maps into shard 0; that shard's instance rate bounds the
     aggregate, so extra shards buy little — the negative control that the
     scaling is real routing, not noise. *)

module Oid_dist = Base_workload.Oid_dist

(* Above the S = 4 capacity, so every shard count sheds and the speedup
   measures capacity rather than the offered load. *)
let e18_rate = 250_000.0

let e18_duration_us = 400_000

let e18_objects = 256

let e18_shards = [ 1; 2; 4 ]

let e18_run ~shards ~oid_of =
  let sys =
    Systems.make_registers ~seed:57L ~n_clients:e15_pool ~n_objects:e18_objects
      ~checkpoint_period:128 ~batch_max:16 ~max_inflight:1 ~shards ()
  in
  let rt = sys.Systems.reg_runtime in
  let load =
    Load.create ~seed:19L ~arrivals:Load.Poisson ~max_backlog:2_000
      ~operation:(fun i ->
        let oid = oid_of i in
        if i land 1 = 0 then Printf.sprintf "set:%d:v%d" oid i
        else Printf.sprintf "get:%d" oid)
      ~rate_per_s:e18_rate ~duration_us:e18_duration_us rt
  in
  J.obj (load_point "E18" load)

let e18 () =
  section "E18" "shard scaling: aggregate throughput vs shard count, by oid skew";
  let key shards = Printf.sprintf "shards%d" shards in
  let sweep oid_of = J.obj (List.map (fun n -> (key n, e18_run ~shards:n ~oid_of)) e18_shards) in
  let uniform = sweep (Oid_dist.uniform ~n_objects:e18_objects) in
  let hotspot = sweep (Oid_dist.hotspot ~n_objects:e18_objects) in
  List.iter
    (fun (name, dist) ->
      Printf.printf "\n  %s oids\n" name;
      table
        (("shards", "shards", 8, text) :: load_cols)
        (List.map (fun n -> with_field "shards" (J.Int n) (get dist (key n))) e18_shards))
    [ ("uniform", uniform); ("hot-spot", hotspot) ];
  let speedup dist shards =
    getf (get dist (key shards)) "throughput_per_s"
    /. Float.max 1.0 (getf (get dist (key 1)) "throughput_per_s")
  in
  Printf.printf "\n  uniform speedup over S=1: S=2 %.2fx, S=4 %.2fx\n" (speedup uniform 2)
    (speedup uniform 4);
  Printf.printf "  hot-spot speedup over S=1: S=2 %.2fx, S=4 %.2fx\n" (speedup hotspot 2)
    (speedup hotspot 4);
  (* Acceptance criteria: sharding scales the conflict-free workload, and
     the hot shard bounds the skewed one well below the uniform scaling. *)
  assert (speedup uniform 4 >= 2.0);
  assert (speedup hotspot 4 < speedup uniform 4);
  Printf.printf
    "  independent per-shard agreement multiplies the sequential instance rate;\n\
    \  an oid hot-spot re-serialises it on the owning shard's primary.\n";
  J.obj [ ("hotspot", hotspot); ("uniform", uniform) ]

(* --- driver ------------------------------------------------------------------------ *)

(* A blessed experiment returns its section of BENCH_metrics.json, named by
   its lowercased id; the others only print: E4 counts source lines, E7b
   times the machine, and the E17 smoke is a subset of E17. *)
type experiment = Blessed of (unit -> J.t) | Printed of (unit -> unit)

let experiments =
  [
    ("E2", Blessed e2);
    ("E3", Blessed e3);
    ("E3b", Blessed e3_ablation);
    ("E3c", Blessed e3_micro);
    ("E4", Printed e4);
    ("E5", Blessed e5);
    ("E6", Blessed e6);
    ("E7", Blessed e7_transfer_sweep);
    ("E7b", Printed e7_micro);
    ("E8", Blessed e8);
    ("E9", Blessed e9);
    ("E10", Blessed e10);
    ("E11", Blessed e11);
    ("E12", Blessed e12);
    ("E13", Blessed e13);
    ("E14", Blessed e14);
    ("E15", Blessed e15);
    ("E16", Blessed e16);
    ("E17", Blessed e17);
    ("E17-SMOKE", Printed e17_smoke);
    ("E18", Blessed e18);
  ]

(* The regression artifact CI gates on, written only when every blessed
   experiment ran, so a partial run never blesses a partial file.  Every
   number in it is a function of the seeds (virtual clock, sorted keys,
   canonical floats). *)
let write_blessed sections =
  let json = J.to_string_pretty (J.obj sections) ^ "\n" in
  let path = "BENCH_metrics.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s (%d bytes, sections: %s)\n" path (String.length json)
    (String.concat " " (List.sort String.compare (List.map fst sections)))

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    if requested = [] then experiments
    else List.filter (fun (id, _) -> List.mem id requested) experiments
  in
  if to_run = [] then begin
    Printf.printf "unknown experiment; available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  Printf.printf "BASE reproduction - experiment harness (see EXPERIMENTS.md)\n";
  let run (id, e) =
    match e with
    | Blessed f -> Some (String.lowercase_ascii id, f ())
    | Printed f -> f (); None
  in
  let sections = List.filter_map run to_run in
  (* [to_run] holds each experiment at most once. *)
  let blessed = List.filter (function _, Blessed _ -> true | _, Printed _ -> false) experiments in
  if List.length sections = List.length blessed then write_blessed sections
