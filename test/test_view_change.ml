(* The view-change path under fire: crash, equivocation, and fault-plan
   driven storms must all install a new view, keep completing requests, and
   leave their latency trail in [bft.view_change_us]. *)

module Runtime = Base_core.Runtime
module Replica = Base_bft.Replica
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Faultplan = Base_sim.Faultplan
module Metrics = Base_obs.Metrics

let plan_exn text =
  match Faultplan.parse text with Ok p -> p | Error e -> Alcotest.fail e

let vc_samples sys =
  Metrics.hist_count (Metrics.histogram (Runtime.metrics sys) "bft.view_change_us")

let counter sys name = Metrics.counter_value (Metrics.counter (Runtime.metrics sys) name)

(* Crash the primary mid-load: the f survivors change views, requests keep
   completing, and the view-change histogram gains samples. *)
let test_primary_crash () =
  let sys, _ =
    Helpers.make_system ~seed:31L ~client_timeout_us:50_000 ~viewchange_timeout_us:100_000 ()
  in
  Alcotest.(check string) "healthy write" "ok" (Helpers.set sys ~client:0 1 "before");
  Alcotest.(check int) "no view change yet" 0 (vc_samples sys);
  Runtime.apply_faultplan sys (plan_exn "at 1ms crash 0");
  (* Let the crash fire before probing: a write issued immediately would
     complete under the still-healthy primary. *)
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_ms 20)) (Runtime.engine sys);
  Alcotest.(check string) "write survives the crash" "ok" (Helpers.set sys ~client:0 2 "after");
  Alcotest.(check string) "read-back" "after" (Helpers.value_part (Helpers.get sys ~client:0 2));
  Array.iter
    (fun node ->
      if node.Runtime.rid <> 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "replica %d left view 0" node.Runtime.rid)
          true
          (Replica.view node.Runtime.replica > 0);
        Alcotest.(check bool)
          (Printf.sprintf "replica %d counted a view change" node.Runtime.rid)
          true
          ((Replica.stats node.Runtime.replica).Replica.view_changes > 0)
      end)
    (Runtime.replicas sys);
  Alcotest.(check bool) "bft.view_change_us is non-empty" true (vc_samples sys > 0)

(* An equivocating primary cannot commit conflicting orderings; the backups
   detect the conflicting digests and move to a view with an honest leader. *)
let test_equivocating_primary () =
  let sys, _ =
    Helpers.make_system ~seed:32L ~client_timeout_us:50_000 ~viewchange_timeout_us:100_000 ()
  in
  Runtime.apply_faultplan sys (plan_exn "at 0us behavior 0 equivocate");
  Alcotest.(check string) "write completes despite equivocation" "ok"
    (Helpers.set sys ~client:0 3 "honest-quorum");
  Alcotest.(check string) "read-back" "honest-quorum"
    (Helpers.value_part (Helpers.get sys ~client:0 3));
  Alcotest.(check bool) "equivocation detected" true
    (counter sys "bft.equivocation_detected" > 0);
  Alcotest.(check bool) "view changed away from the equivocator" true (vc_samples sys > 0)

(* A full mini-storm from the DSL: omission attack on the primary, then a
   primary crash/reboot cycle, then a short partition.  Liveness must hold
   at every probe and the crashed replica must rejoin. *)
let test_faultplan_storm () =
  let sys, _ =
    Helpers.make_system ~seed:33L ~client_timeout_us:50_000 ~viewchange_timeout_us:100_000 ()
  in
  let plan =
    plan_exn
      "# storm: one faulty replica at a time\n\
       at 10ms attack-preprepare 0 mute=0.8 delay=2ms for 300ms\n\
       at 400ms crash 0\n\
       at 700ms reboot 0\n\
       at 900ms partition 2 / 0 1 3\n\
       at 1200ms heal\n"
  in
  Runtime.apply_faultplan sys plan;
  let t0 = Sim_time.to_sec (Runtime.now sys) in
  let i = ref 0 in
  while Sim_time.to_sec (Runtime.now sys) < t0 +. 1.5 do
    incr i;
    match
      Runtime.try_invoke_sync sys ~client:0
        ~operation:(Printf.sprintf "set:%d:storm%d" (!i mod 8) !i)
        ()
    with
    | Ok r -> Alcotest.(check string) "storm write" "ok" r
    | Error e -> Alcotest.fail ("liveness lost during storm: " ^ e)
  done;
  Alcotest.(check bool) "issued writes throughout" true (!i > 10);
  Alcotest.(check bool) "view changes happened" true (vc_samples sys > 0);
  Alcotest.(check bool) "adversary muted pre-prepares" true (counter sys "adversary.pp_muted" > 0);
  (* Settle, then check the whole group reconverged on one view and state. *)
  (try Runtime.run_until_idle sys with Runtime.Stalled e -> Alcotest.fail e);
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 1.0)) (Runtime.engine sys);
  Alcotest.(check string) "post-storm write" "ok" (Helpers.set sys ~client:0 0 "final");
  Alcotest.(check string) "post-storm read" "final"
    (Helpers.value_part (Helpers.get_ro sys ~client:0 0))

(* Corrupted-in-flight protocol messages must be rejected at the wire codec
   and never break agreement. *)
let test_corruption_window () =
  let sys, _ =
    Helpers.make_system ~seed:34L ~client_timeout_us:50_000 ~viewchange_timeout_us:100_000 ()
  in
  Runtime.apply_faultplan sys (plan_exn "at 1ms corrupt *->* p=0.3 for 400ms");
  for i = 1 to 20 do
    Alcotest.(check string) "write under corruption" "ok"
      (Helpers.set sys ~client:0 (i mod 8) (Printf.sprintf "v%d" i))
  done;
  Alcotest.(check bool) "messages were corrupted" true ((Engine.total_counters (Runtime.engine sys)).Engine.corrupted_msgs > 0);
  let rejects =
    Array.fold_left
      (fun acc node -> acc + (Replica.stats node.Runtime.replica).Replica.rejected_decode)
      0 (Runtime.replicas sys)
  in
  Alcotest.(check bool) "replicas rejected corrupted wire bytes" true (rejects > 0)

(* Rebuild the runtime's keychains (deterministic from the engine seed) so
   a test adversary can seal protocol messages with *valid* MACs: the
   attack below is well-formed and authenticated, only its claims are
   implausible. *)
let chains_for ~seed sys =
  Base_crypto.Auth.create
    ~seed:(Int64.add seed 7919L)
    ~n_principals:(Runtime.config sys).Base_bft.Types.n_principals

let settle sys ms =
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_ms ms)) (Runtime.engine sys)

module Message = Base_bft.Message
module Digest = Base_crypto.Digest_t

(* A VIEW-CHANGE passing the MAC check but claiming a prepared PRE-PREPARE far
   outside the log window above its own claimed checkpoint: counted as
   insane and dropped before it can widen the view-change window
   (regression for the taint pass's B3 findings on view adoption). *)
let test_insane_view_change_rejected () =
  let seed = 41L in
  let sys, _ =
    Helpers.make_system ~seed ~client_timeout_us:50_000 ~viewchange_timeout_us:100_000 ()
  in
  Alcotest.(check string) "healthy write" "ok" (Helpers.set sys ~client:0 1 "base");
  let chains = chains_for ~seed sys in
  let config = Runtime.config sys in
  let r1 = (Runtime.replica sys 1).Runtime.replica in
  let before = (Replica.stats r1).Replica.rejected_insane in
  let insane_vc =
    Message.View_change
      {
        new_view = 1;
        last_stable = 0;
        stable_digest = Digest.of_string "x";
        prepared =
          [
            {
              Message.view = 0;
              seq = 1_000_000;
              digest = Digest.of_string "y";
              requests = [];
              nondet = "";
            };
          ];
        replica = 2;
      }
  in
  let env = Message.seal chains.(2) ~sender:2 ~n_receivers:config.Base_bft.Types.n insane_vc in
  Engine.send (Runtime.engine sys) ~src:2 ~dst:1 (Runtime.Bft env);
  settle sys 50;
  Alcotest.(check int) "insane VC counted" (before + 1) (Replica.stats r1).Replica.rejected_insane;
  Alcotest.(check int) "MAC was fine" 0 (Replica.stats r1).Replica.rejected_macs;
  Alcotest.(check int) "view did not move" 0 (Replica.view r1);
  Alcotest.(check int) "report agrees" (before + 1) (Helpers.reported_stat sys 1 "rejected_insane");
  Alcotest.(check string) "system still live" "ok" (Helpers.set sys ~client:0 2 "after")

(* A NEW-VIEW from the legitimate next primary whose bundled pre-prepares
   would teleport the log window to an attacker-chosen seqno: the shape
   check rejects it before [next_seq] is adopted. *)
let test_insane_new_view_rejected () =
  let seed = 42L in
  let sys, _ =
    Helpers.make_system ~seed ~client_timeout_us:50_000 ~viewchange_timeout_us:100_000 ()
  in
  Alcotest.(check string) "healthy write" "ok" (Helpers.set sys ~client:0 1 "base");
  let chains = chains_for ~seed sys in
  let config = Runtime.config sys in
  let p1 = Base_bft.Types.shard_primary config ~shard:0 1 in
  let dst = (p1 + 1) mod config.Base_bft.Types.n in
  let rd = (Runtime.replica sys dst).Runtime.replica in
  let before = (Replica.stats rd).Replica.rejected_insane in
  let insane_nv =
    Message.New_view
      {
        nv_view = 1;
        nv_view_changes = [ (0, 0); (2, 0); (3, 0) ];
        nv_pre_prepares =
          [
            {
              Message.view = 1;
              seq = 5_000_000;
              digest = Digest.of_string "z";
              requests = [];
              nondet = "";
            };
          ];
      }
  in
  let env =
    Message.seal chains.(p1) ~sender:p1 ~n_receivers:config.Base_bft.Types.n insane_nv
  in
  Engine.send (Runtime.engine sys) ~src:p1 ~dst (Runtime.Bft env);
  settle sys 50;
  Alcotest.(check int) "insane NV counted" (before + 1)
    (Replica.stats rd).Replica.rejected_insane;
  Alcotest.(check bool) "next_seq not teleported" true (Replica.last_executed rd < 1_000);
  settle sys 500;
  Alcotest.(check string) "system still live" "ok" (Helpers.set sys ~client:0 2 "after")

(* A NEW-VIEW whose summary inflates the primary's stable seqno and carries
   an empty O.  Its O matches the VIEW-CHANGEs the backup holds, but
   installed it would move [next_seq] to the inflated seqno for good, and
   the backup, once primary, would find its window full and queue every
   request.  The backup holds all three summarised VIEW-CHANGEs, so it
   checks the claimed checkpoint against them and moves on to view 2. *)
let test_inflated_stable_seqno_is_mismatch () =
  let config = Base_bft.Types.make_config ~f:1 ~n_clients:1 () in
  let chains = Base_crypto.Auth.create ~seed:13L ~n_principals:config.Base_bft.Types.n_principals in
  let seal sender body =
    Message.seal chains.(sender) ~sender ~n_receivers:config.Base_bft.Types.n body
  in
  let primary = Base_bft.Types.shard_primary config ~shard:0 1 in
  let backup_after claim =
    let r = Helpers.bare_replica ~config ~chains 2 in
    let vc replica =
      { Message.new_view = 1; last_stable = 0; stable_digest = Digest.zero; prepared = []; replica }
    in
    List.iter (fun replica -> Replica.receive r (seal replica (Message.View_change (vc replica))))
      [ 0; primary; 3 ];
    let summary = [ (0, 0); (primary, claim); (3, 0) ] in
    Replica.receive r
      (seal primary
         (Message.New_view { nv_view = 1; nv_view_changes = summary; nv_pre_prepares = [] }));
    (Replica.view r, Replica.status r)
  in
  Alcotest.(check bool) "the honest summary installs view 1" true
    (backup_after 0 = (1, Replica.Normal));
  Alcotest.(check bool) "the inflated one is a mismatch: on to view 2" true
    (backup_after 1_000_000 = (2, Replica.View_changing))

let suite =
  [
    Alcotest.test_case "primary crash installs a new view" `Quick test_primary_crash;
    Alcotest.test_case "insane view-change is counted and dropped" `Quick
      test_insane_view_change_rejected;
    Alcotest.test_case "insane new-view is counted and rejected" `Quick
      test_insane_new_view_rejected;
    Alcotest.test_case "equivocating primary is detected and deposed" `Quick
      test_equivocating_primary;
    Alcotest.test_case "faultplan storm keeps liveness" `Slow test_faultplan_storm;
    Alcotest.test_case "corruption window is survived" `Quick test_corruption_window;
    Alcotest.test_case "new-view with an inflated stable seqno is a mismatch" `Quick
      test_inflated_stable_seqno_is_mismatch;
  ]
