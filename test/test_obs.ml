(* The observability layer: bucket-edge semantics, JSON canonicalisation,
   and the headline property — two same-seed runs emit a byte-identical
   trace. *)

module Metrics = Base_obs.Metrics
module Trace = Base_obs.Trace
module Json = Base_obs.Json
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Replica = Base_bft.Replica

(* Histogram [name]'s field [key] in the registry's JSON export. *)
let hist_field m name key =
  match Metrics.to_json m with
  | Json.Obj metrics -> (
    match List.assoc_opt name metrics with
    | Some (Json.Obj h) -> List.assoc key h
    | _ -> Alcotest.failf "no histogram %s" name)
  | _ -> Alcotest.fail "registry export is not an object"

let test_bucket_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10.0; 20.0 |] m "edges" in
  Metrics.observe h 10.0;
  (* exactly on a bound: first bucket *)
  Metrics.observe h 10.0001;
  (* just above: second bucket *)
  Metrics.observe h 25.0;
  (* above the last bound: overflow slot *)
  let bucket_counts () =
    match hist_field m "edges" "buckets" with
    | Json.List buckets ->
      List.map
        (function
          | Json.Obj b -> ( match List.assoc "count" b with Json.Int n -> n | _ -> -1)
          | _ -> -1)
        buckets
    | _ -> Alcotest.fail "buckets is not a list"
  in
  Alcotest.(check (list int)) "bucket placement" [ 1; 1; 1 ] (bucket_counts ());
  Alcotest.(check int) "count" 3 (Metrics.hist_count h);
  Metrics.observe h Float.nan;
  Alcotest.(check int) "NaN ignored" 3 (Metrics.hist_count h)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10.0; 20.0; 40.0 |] m "q" in
  List.iter (Metrics.observe h) [ 5.0; 15.0; 15.0; 30.0 ];
  (* All mass up to rank 1 sits in the first bucket; quantile estimates stay
     within the bucket that holds the target rank. *)
  Alcotest.(check bool) "p25 in first bucket" true (Metrics.quantile h 0.25 <= 10.0);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool) "p99 in last occupied bucket" true (p99 > 20.0 && p99 <= 40.0)

let test_registration_conflicts () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x" in
  Metrics.incr c;
  let c' = Metrics.counter m "x" in
  Metrics.incr c';
  Alcotest.(check int) "get-or-create shares state" 2 (Metrics.counter_value c);
  Alcotest.check_raises "kind clash raises"
    (Invalid_argument "Metrics: x already registered as a counter (wanted a histogram)")
    (fun () -> ignore (Metrics.histogram m "x"))

let test_json_canonical () =
  let j =
    Json.obj
      [ ("b", Json.Int 1); ("a", Json.Float 2.0); ("c", Json.Float Float.nan) ]
  in
  Alcotest.(check string) "sorted keys, canonical floats, NaN -> null"
    {|{"a":2.0,"b":1,"c":null}|} (Json.to_string j)

let test_json_parse_roundtrip () =
  let j =
    Json.obj
      [
        ("counts", Json.List [ Json.Int 0; Json.Int (-3); Json.Int max_int ]);
        ("flag", Json.Bool true);
        ("floats", Json.List [ Json.Float 2.0; Json.Float 0.015625; Json.Float (-1.5e9) ]);
        ("missing", Json.Null);
        ("nested", Json.obj [ ("s", Json.Str "quote\" slash\\ tab\t ctl\x01") ]);
      ]
  in
  (* to_string o of_string is the identity on the module's own output —
     both compact and pretty. *)
  List.iter
    (fun rendered ->
      match Json.of_string rendered with
      | Ok parsed -> Alcotest.(check string) "round trip" (Json.to_string j) (Json.to_string parsed)
      | Error e -> Alcotest.fail e)
    [ Json.to_string j; Json.to_string_pretty j ];
  (* Int/Float distinction survives: "2.0" parses as Float, "2" as Int. *)
  (match Json.of_string "[2,2.0]" with
  | Ok (Json.List [ Json.Int 2; Json.Float 2.0 ]) -> ()
  | Ok _ | Error _ -> Alcotest.fail "number type mangled");
  (* A float that rounds to an integer at 9 digits still reads back as one. *)
  (match Json.of_string (Json.to_string (Json.Float 564.0000000001)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-6)) "near-integer float" 564.0 f
  | Ok _ | Error _ -> Alcotest.fail "near-integer float read back as an Int");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "\"open"; "tru"; "{\"a\":1}x"; "" ]

let test_trace_events () =
  let tr = Trace.create () in
  (* Attribute order as given must not matter. *)
  Trace.event tr ~ts:5L ~name:"e" [ ("z", "1"); ("a", "2") ];
  Trace.event tr ~ts:6L ~name:"f" [ ("a", "2"); ("z", "1") ];
  Alcotest.(check (list (pair string (list (pair string string)))))
    "attrs sorted"
    [ ("e", [ ("a", "2"); ("z", "1") ]); ("f", [ ("a", "2"); ("z", "1") ]) ]
    (List.map (fun ev -> (ev.Trace.name, ev.Trace.attrs)) (Trace.events tr));
  let lines = String.split_on_char '\n' (String.trim (Format.asprintf "%a" Trace.pp tr)) in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  Alcotest.(check string) "rendered in key order" "0.000005s e                        a=2 z=1"
    (String.trim (List.nth lines 0))

let test_trace_limit () =
  let tr = Trace.create ~limit:2 () in
  for i = 1 to 5 do
    Trace.event tr ~ts:(Int64.of_int i) ~name:"e" []
  done;
  Alcotest.(check int) "prefix kept" 2 (Trace.length tr);
  Alcotest.(check int) "the rest counted as dropped" 3 (Trace.dropped tr);
  (match Trace.events tr with
  | [ a; b ] ->
    Alcotest.(check int64) "first" 1L a.Trace.ts;
    Alcotest.(check int64) "second" 2L b.Trace.ts
  | _ -> Alcotest.fail "expected 2 events")

(* The engine's network events: one per send and one per delivery (or loss
   to a down node), attributed with endpoints, size and label. *)
let test_engine_net_events () =
  let module Engine = Base_sim.Engine in
  let e =
    Engine.create (Engine.default_config ~size_of:String.length ~label_of:(fun m -> "MSG-" ^ m))
  in
  Engine.add_node e ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node e ~id:1 (fun ~src:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 "untraced";
  Engine.run e;
  let tr = Trace.create () in
  Engine.attach_trace e tr;
  Engine.send e ~src:0 ~dst:1 "ab";
  Engine.run e;
  Engine.set_node_up e 1 false;
  Engine.send e ~src:1 ~dst:0 "xyz";
  Engine.send e ~src:0 ~dst:1 "c";
  Engine.run e;
  Alcotest.(check (list (pair string (list (pair string string)))))
    "events"
    [
      ("net.send", [ ("bytes", "2"); ("dst", "1"); ("label", "MSG-ab"); ("src", "0") ]);
      ("net.deliver", [ ("bytes", "2"); ("dst", "1"); ("label", "MSG-ab"); ("src", "0") ]);
      ("net.send", [ ("bytes", "3"); ("dst", "0"); ("label", "MSG-xyz"); ("src", "1") ]);
      ("net.send", [ ("bytes", "1"); ("dst", "1"); ("label", "MSG-c"); ("src", "0") ]);
      ("net.deliver", [ ("bytes", "3"); ("dst", "0"); ("label", "MSG-xyz"); ("src", "1") ]);
      ("net.lost", [ ("bytes", "1"); ("dst", "1"); ("label", "MSG-c"); ("src", "0") ]);
    ]
    (List.map (fun ev -> (ev.Trace.name, ev.Trace.attrs)) (Trace.events tr))

(* The property the benchmark JSON gate relies on: running the same seeded
   system twice produces byte-identical traces and reports. *)
let test_trace_determinism () =
  let run seed =
    let sys, _ = Helpers.make_system ~seed ~checkpoint_period:8 () in
    Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:400_000 sys;
    for i = 0 to 7 do
      ignore (Helpers.set sys ~client:0 i (Printf.sprintf "v%d" i))
    done;
    Engine.run
      ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 2.0))
      (Runtime.engine sys);
    ( Format.asprintf "%a" Trace.pp (Runtime.trace sys),
      Json.to_string (Runtime.metrics_report sys) )
  in
  let trace1, report1 = run 42L in
  let trace2, report2 = run 42L in
  Alcotest.(check bool) "trace nonempty" true (String.length trace1 > 0);
  Alcotest.(check string) "same seed, same trace" trace1 trace2;
  Alcotest.(check string) "same seed, same report" report1 report2;
  let trace3, _ = run 43L in
  Alcotest.(check bool) "different seed, different trace" true
    (not (String.equal trace1 trace3))

let test_runtime_phase_metrics () =
  let sys, _ = Helpers.make_system ~checkpoint_period:8 () in
  for i = 0 to 7 do
    ignore (Helpers.set sys ~client:0 i "x")
  done;
  let m = Runtime.metrics sys in
  let h = Metrics.histogram m "bft.phase.total_us" in
  Alcotest.(check bool) "phase latencies recorded" true (Metrics.hist_count h > 0);
  Alcotest.(check bool) "positive mean" true
    (match hist_field m "bft.phase.total_us" "sum" with Json.Float sum -> sum > 0.0 | _ -> false)

(* The registry keeps histograms and only the counters and gauges no record
   holds; each layer's record is the one tally of what it counts.  Checked
   on the E12 benchmark's configuration: loaded BASE-FS with proactive
   recovery, whose key refreshes make the replicas reject stale MACs. *)
let mirrors =
  [
    "base.st.cache_hits"; "base.st.source_quarantined"; "base.standby.promotions";
    "bft.reject.mac"; "bft.reject.decode"; "bft.reject.insane"; "bft.catchup_status";
    "bft.vouchers_sent"; "bft.vouched_proposals";
  ]

let e12_configuration () =
  let module C = Base_nfs.Nfs_client in
  let sys =
    Base_workload.Systems.make_basefs ~seed:11L ~hetero:true ~checkpoint_period:16 ~n_clients:1 ()
  in
  let rt = sys.Base_workload.Systems.runtime in
  Runtime.enable_proactive_recovery ~reboot_us:100_000 ~period_us:2_000_000 rt;
  let nfs = Base_workload.Systems.nfs_client rt ~client:0 in
  let f, _ = C.ok (C.create nfs Base_nfs.Nfs_types.root_oid "obs" Base_nfs.Nfs_types.sattr_empty) in
  for i = 1 to 50 do
    ignore (C.ok (C.write nfs f ~off:(i * 16) (String.make 64 'o')))
  done;
  Engine.run ~until:(Sim_time.add (Runtime.now rt) (Sim_time.of_sec 9.0)) (Runtime.engine rt);
  rt

let test_registry_counts_each_fact_once () =
  let rt = e12_configuration () in
  let names =
    match Metrics.to_json (Runtime.metrics rt) with
    | Json.Obj metrics -> List.map fst metrics
    | _ -> Alcotest.fail "registry export is not an object"
  in
  Alcotest.(check (list string)) "no engine.* name" []
    (List.filter (String.starts_with ~prefix:"engine.") names);
  Alcotest.(check (list string)) "no mirror of a record" []
    (List.filter (fun n -> List.mem n mirrors) names);
  (* Each [replicas] entry is its cell's [Replica.stats]. *)
  let cells = Runtime.all_cells rt in
  Alcotest.(check int) "one entry per cell" (List.length cells)
    (List.length (Helpers.reported_cells rt));
  let fields =
    Replica.
      [
        ("executed", fun s -> s.executed);
        ("executed_requests", fun s -> s.executed_requests);
        ("checkpoints_taken", fun s -> s.checkpoints_taken);
        ("view_changes", fun s -> s.view_changes);
        ("fetches", fun s -> s.fetches);
        ("rejected_macs", fun s -> s.rejected_macs);
        ("rejected_decode", fun s -> s.rejected_decode);
        ("rejected_insane", fun s -> s.rejected_insane);
        ("catchup_status", fun s -> s.catchup_status);
        ("vouchers_sent", fun s -> s.vouchers_sent);
        ("vouched_proposals", fun s -> s.vouched_proposals);
      ]
  in
  List.iter
    (fun node ->
      let stats = Replica.stats node.Runtime.replica in
      List.iter
        (fun (name, get) ->
          Alcotest.(check int)
            (Printf.sprintf "replica %d %s" node.Runtime.rid name)
            (get stats)
            (Helpers.reported_stat ~shard:node.Runtime.shard rt node.Runtime.rid name))
        fields)
    cells;
  Alcotest.(check bool) "stale MACs rejected" true
    (List.exists (fun node -> (Replica.stats node.Runtime.replica).Replica.rejected_macs > 0) cells);
  (* [net.totals] is the sum of [net.labels]. *)
  let net = Helpers.json_field "net" (Runtime.metrics_report rt) in
  let totals = Helpers.json_field "totals" net in
  Alcotest.(check int) "six totals" 6 (List.length (Helpers.json_fields totals));
  List.iter
    (fun (key, _) ->
      Alcotest.(check int) ("totals." ^ key ^ " = sum of labels") (Helpers.json_int key totals)
        (List.fold_left
           (fun acc (_, c) -> acc + Helpers.json_int key c)
           0
           (Helpers.json_fields (Helpers.json_field "labels" net))))
    (Helpers.json_fields totals);
  Alcotest.(check bool) "traffic counted" true (Helpers.json_int "sent_msgs" totals > 0)

(* The report's [replicas] are every cell, standbys included, by
   [(shard, rid)]. *)
let test_report_lists_cells_in_order () =
  let cells rt =
    List.map
      (fun c -> (Helpers.json_int "shard" c, Helpers.json_int "rid" c))
      (Helpers.reported_cells rt)
  in
  let registers ?shards ?standbys () =
    (Base_workload.Systems.make_registers ?shards ?standbys ()).Base_workload.Systems.reg_runtime
  in
  Alcotest.(check (list (pair int int))) "two shards"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 0); (1, 1); (1, 2); (1, 3) ]
    (cells (registers ~shards:2 ()));
  Alcotest.(check (list (pair int int))) "a standby"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (0, 4) ]
    (cells (registers ~standbys:1 ()))

(* The runtime's trace counts what it refuses once full, and the report
   exports that count next to what it kept. *)
let test_report_counts_trace_drops () =
  let rt = (Base_workload.Systems.make_registers ()).Base_workload.Systems.reg_runtime in
  let trace = Runtime.trace rt in
  Engine.attach_trace (Runtime.engine rt) trace;
  let i = ref 0 in
  while Trace.dropped trace = 0 && !i < 10_000 do
    ignore (Runtime.invoke_sync rt ~client:0 ~operation:(Printf.sprintf "set:%d:v" (!i mod 64)) ());
    incr i
  done;
  let report = Runtime.metrics_report rt in
  Alcotest.(check bool) "drops exported" true (Helpers.json_int "trace_dropped" report > 0);
  Alcotest.(check int) "drops match the trace" (Trace.dropped trace)
    (Helpers.json_int "trace_dropped" report);
  Alcotest.(check int) "kept up to the limit" 100_000 (Helpers.json_int "trace_events" report)

(* A span's allocation is exact even when a minor collection falls inside
   it: allocation made before the span must not be charged to it. *)
let test_profile_alloc_exact () =
  let module Profile = Base_obs.Profile in
  let p = Profile.create () in
  Profile.enable p;
  let probe = Profile.probe p "exact" in
  Gc.minor ();
  (* About 100 KB of junk left in the minor heap before the span opens. *)
  let junk = List.init 4_000 (fun i -> Sys.opaque_identity (ref i)) in
  let n = 1_000 in
  Profile.start p probe;
  let before = Sys.opaque_identity (List.init n Fun.id) in
  Gc.minor ();
  let after = Sys.opaque_identity (List.init n Fun.id) in
  Profile.stop p probe;
  ignore (Sys.opaque_identity (junk, before, after));
  (* Two lists of [n] three-word cons cells. *)
  let expected = 2 * n * 3 * (Sys.word_size / 8) in
  let measured =
    match Profile.to_json p with
    | Json.Obj [ ("exact", Json.Obj fields) ] -> (
      match List.assoc_opt "alloc_bytes" fields with Some (Json.Int b) -> b | _ -> -1)
    | _ -> -1
  in
  if abs (measured - expected) > 1024 then
    Alcotest.failf "span allocated %d B, expected %d B within 1 KiB" measured expected

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "registration conflicts" `Quick test_registration_conflicts;
    Alcotest.test_case "json canonical form" `Quick test_json_canonical;
    Alcotest.test_case "json parse round-trips" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "trace renders sorted attrs" `Quick test_trace_events;
    Alcotest.test_case "trace honours its limit" `Quick test_trace_limit;
    Alcotest.test_case "engine records network events" `Quick test_engine_net_events;
    Alcotest.test_case "same-seed runs trace identically" `Quick test_trace_determinism;
    Alcotest.test_case "replica phases reach the registry" `Quick test_runtime_phase_metrics;
    Alcotest.test_case "probe allocation is exact" `Quick test_profile_alloc_exact;
    Alcotest.test_case "the registry counts each fact once" `Quick
      test_registry_counts_each_fact_once;
    Alcotest.test_case "the report lists every cell by (shard, rid)" `Quick
      test_report_lists_cells_in_order;
    Alcotest.test_case "the report counts trace drops" `Quick test_report_counts_trace_drops;
  ]
