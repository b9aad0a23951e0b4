(* Tests of the windowed, load-spread state-transfer pipeline: the window
   bound, source quarantine, chunked-object reassembly, leaf-cache hits
   and Byzantine chunk sources (no simulator — a synchronous in-process
   channel with per-source tampering). *)

module St = Base_core.State_transfer
module Objrepo = Base_core.Objrepo
module Service = Base_core.Service
module Digest = Base_crypto.Digest_t
module Prng = Base_util.Prng

let synthetic ?(n_objects = 64) ?(obj_bytes = 64) ?cache_objs ~seed () =
  let prng = Prng.create seed in
  let store = Array.init n_objects (fun _ -> Bytes.to_string (Prng.bytes prng obj_bytes)) in
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
  (store, Objrepo.create ?cache_objs ~wrapper ~branching:8 ())

let mutate ~obj_bytes store repo prng i =
  Objrepo.modify repo i;
  store.(i) <- Bytes.to_string (Prng.bytes prng obj_bytes)

let checkpoint repo ~seq =
  let root = Objrepo.take_checkpoint repo ~seq ~client_rows:[] in
  (root, St.combined_digest ~app_root:root ~client_rows:[])

type run = {
  completed : bool;
  stats : St.stats;
  scoreboard : St.source array;
  peak_inflight : int;
  sent : (int * St.msg) list;  (** every (dst, request) in send order *)
  verdicts : St.verdict list;  (** one per handled reply, in order *)
}

(* Drive a fetch against [sources] replicas all serving the same [src]
   repo over a synchronous queue.  [tamper ~src reply] lets a test make
   individual sources Byzantine; [on_step] observes the fetcher after
   every handled reply.  [retry] is never called, so a quarantine imposed
   during the run never expires. *)
let drive ?window ?(tamper = fun ~src:_ m -> m) ?(on_step = fun _ -> ()) ?(sources = [ 0 ])
    ~src ~dst ~seq ~digest () =
  let q = Queue.create () in
  let sent = ref [] in
  let verdicts = ref [] in
  let completed = ref false in
  let peak = ref 0 in
  let fetcher =
    St.start ?window ~repo:dst ~sources ~target_seq:seq ~target_digest:digest
      ~send:(fun ~dst:d m ->
        sent := (d, m) :: !sent;
        Queue.add (d, m) q)
      ~on_complete:(fun ~seq:_ ~app_root:_ ~client_rows:_ -> completed := true)
      ()
  in
  let rounds = ref 0 in
  while (not (Queue.is_empty q)) && !rounds < 100_000 do
    incr rounds;
    let d, m = Queue.pop q in
    (match St.serve src m with
    | Some reply -> verdicts := St.handle_reply fetcher ~from:d (tamper ~src:d reply) :: !verdicts
    | None -> ());
    if St.inflight fetcher > !peak then peak := St.inflight fetcher;
    on_step fetcher
  done;
  {
    completed = !completed;
    stats = St.stats fetcher;
    scoreboard = St.scoreboard fetcher;
    peak_inflight = !peak;
    sent = List.rev !sent;
    verdicts = List.rev !verdicts;
  }

let corrupt data = String.map (fun c -> Char.chr (Char.code c lxor 1)) data

let test_window_never_exceeded () =
  let obj_bytes = 64 in
  let store_src, src = synthetic ~obj_bytes ~seed:1L () in
  let _, dst = synthetic ~obj_bytes ~seed:1L () in
  let prng = Prng.create 2L in
  for i = 0 to 29 do
    mutate ~obj_bytes store_src src prng (i * 2)
  done;
  let root, digest = checkpoint src ~seq:1 in
  let r = drive ~window:4 ~sources:[ 0; 1; 2 ] ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true r.completed;
  Alcotest.(check int) "window reached but never exceeded" 4 r.peak_inflight;
  Alcotest.(check int) "all 30 dirty objects fetched" 30 r.stats.St.objects_fetched;
  Alcotest.(check bool) "root converged" true (Digest.equal (Objrepo.current_root dst) root);
  (* The burst stripes over every source, not just the lowest id. *)
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "source %d shared the load" s.St.src_id)
        true (s.St.sent > 0))
    r.scoreboard

let test_quarantined_source_gets_nothing () =
  let obj_bytes = 64 in
  let store_src, src = synthetic ~obj_bytes ~seed:3L () in
  let _, dst = synthetic ~obj_bytes ~seed:3L () in
  let prng = Prng.create 4L in
  for i = 0 to 19 do
    mutate ~obj_bytes store_src src prng i
  done;
  let root, digest = checkpoint src ~seq:1 in
  (* Source 1 corrupts every object body it serves; source 0 is honest. *)
  let tamper ~src:d m =
    match m with
    | St.Obj_reply { seq; index; off; total; data } when d = 1 ->
      St.Obj_reply { seq; index; off; total; data = corrupt data }
    | m -> m
  in
  let sent_at_quarantine = ref (-1) in
  let on_step fetcher =
    let s1 = (St.scoreboard fetcher).(1) in
    if s1.St.quarantine > 0 && !sent_at_quarantine < 0 then
      sent_at_quarantine := s1.St.sent
  in
  let r = drive ~tamper ~on_step ~sources:[ 0; 1 ] ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed despite the liar" true r.completed;
  Alcotest.(check bool) "source 1 was quarantined" true (!sent_at_quarantine >= 0);
  (* retry is never called, so the quarantine never expires: once imposed,
     source 1 must not be sent another request. *)
  Alcotest.(check int) "no fetches after quarantine" !sent_at_quarantine
    r.scoreboard.(1).St.sent;
  Alcotest.(check bool) "root converged" true (Digest.equal (Objrepo.current_root dst) root)

let test_chunked_objects_reassemble () =
  (* 10 KB objects against a 4 KB chunk limit: three ranged replies each,
     verified only as an assembled whole. *)
  let obj_bytes = 10_000 in
  let store_src, src = synthetic ~n_objects:16 ~obj_bytes ~seed:5L () in
  let _, dst = synthetic ~n_objects:16 ~obj_bytes ~seed:5L () in
  let prng = Prng.create 6L in
  List.iter (fun i -> mutate ~obj_bytes store_src src prng i) [ 1; 6; 9; 14 ];
  let root, digest = checkpoint src ~seq:1 in
  let r = drive ~sources:[ 0; 1; 2 ] ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true r.completed;
  Alcotest.(check int) "all four objects fetched" 4 r.stats.St.objects_fetched;
  Alcotest.(check int) "three chunks per object" 12 r.stats.St.chunks_fetched;
  Alcotest.(check int) "whole bodies accounted" 40_000 r.stats.St.bytes_fetched;
  Alcotest.(check bool) "root converged" true (Digest.equal (Objrepo.current_root dst) root)

let test_cache_hit_skips_fetch () =
  let obj_bytes = 64 in
  let store_src, src = synthetic ~obj_bytes ~seed:7L () in
  let _, dst = synthetic ~obj_bytes ~seed:7L () in
  let prng = Prng.create 8L in
  mutate ~obj_bytes store_src src prng 5;
  let root, digest = checkpoint src ~seq:1 in
  (* dst has already seen the certified value (say, via copy-on-write
     before a rollback): prime its leaf cache under the leaf digest. *)
  Objrepo.cache_put dst (Service.object_digest 5 store_src.(5)) store_src.(5);
  let r = drive ~sources:[ 0; 1 ] ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed" true r.completed;
  Alcotest.(check int) "satisfied from the cache" 1 r.stats.St.cache_hits;
  Alcotest.(check int) "no object fetched over the network" 0 r.stats.St.objects_fetched;
  Alcotest.(check bool) "no Fetch_obj ever sent" true
    (List.for_all (fun (_, m) -> match m with St.Fetch_obj _ -> false | _ -> true) r.sent);
  Alcotest.(check bool) "root converged" true (Digest.equal (Objrepo.current_root dst) root)

let test_byzantine_chunks_cannot_stall () =
  (* Source 1 serves correctly-shaped but corrupt chunk bodies.  The lie
     is only detectable on whole-object assembly; the rejected assembly
     strikes every contributor, re-stripes from chunk zero, and the liar's
     accumulating strikes quarantine it — recovery completes from the
     honest source. *)
  let obj_bytes = 10_000 in
  let store_src, src = synthetic ~n_objects:16 ~obj_bytes ~seed:9L () in
  let _, dst = synthetic ~n_objects:16 ~obj_bytes ~seed:9L () in
  let prng = Prng.create 10L in
  List.iter (fun i -> mutate ~obj_bytes store_src src prng i) [ 0; 3; 5; 8; 11; 13 ];
  let root, digest = checkpoint src ~seq:1 in
  let tamper ~src:d m =
    match m with
    | St.Obj_reply { seq; index; off; total; data } when d = 1 ->
      St.Obj_reply { seq; index; off; total; data = corrupt data }
    | m -> m
  in
  let r = drive ~tamper ~sources:[ 0; 1 ] ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check bool) "completed despite Byzantine chunks" true r.completed;
  Alcotest.(check bool) "rejected assemblies were observed" true
    (r.stats.St.objects_rejected > 0);
  Alcotest.(check bool) "the liar was quarantined" true (r.scoreboard.(1).St.quarantines > 0);
  Alcotest.(check bool) "root converged" true (Digest.equal (Objrepo.current_root dst) root)

(* --- re-target verdicts ------------------------------------------------------ *)

let verdict = Alcotest.testable (fun ppf v ->
    match v with
    | St.Continue -> Format.pp_print_string ppf "Continue"
    | St.Retarget r -> Format.fprintf ppf "Retarget %s" r) ( = )

(* A fetch of 30 dirty objects, one request in flight at a time, over a
   queue the test drains by hand. *)
let manual_fetch ?into () =
  let obj_bytes = 64 in
  let store_src, src = synthetic ~obj_bytes ~seed:11L () in
  let _, dst = synthetic ~obj_bytes ~seed:11L () in
  let prng = Prng.create 12L in
  for i = 0 to 29 do
    mutate ~obj_bytes store_src src prng (i * 2)
  done;
  let _, digest = checkpoint src ~seq:1 in
  let q = Queue.create () in
  let fetcher =
    St.start ~window:1 ?into ~repo:dst ~sources:[ 0 ] ~target_seq:1 ~target_digest:digest
      ~send:(fun ~dst:_ m -> Queue.add m q)
      ~on_complete:(fun ~seq:_ ~app_root:_ ~client_rows:_ -> ())
      ()
  in
  let deliver () =
    match St.serve src (Queue.pop q) with
    | Some reply -> ignore (St.handle_reply fetcher ~from:0 reply)
    | None -> ()
  in
  (fetcher, q, deliver)

let test_retarget_stalled () =
  let fetcher, _, _ = manual_fetch () in
  let verdicts = List.init St.stall_rounds (fun _ -> St.retry fetcher) in
  Alcotest.(check (list verdict)) "three silent rounds, then re-target"
    [ St.Continue; St.Continue; St.Retarget "stalled" ] verdicts

let test_retarget_timeout () =
  let tally = St.fresh_stats () in
  let fetcher, q, deliver = manual_fetch ~into:[ tally ] () in
  let progress () =
    let s = St.stats fetcher in
    s.St.meta_fetched + s.St.objects_fetched
  in
  (* Every round makes progress, so only the budget can end the fetch. *)
  let round () =
    let before = progress () in
    while (not (Queue.is_empty q)) && progress () = before do
      deliver ()
    done;
    St.retry fetcher
  in
  let verdicts = List.init (St.retry_budget + 1) (fun _ -> round ()) in
  Alcotest.(check (list verdict)) "eight rounds, then re-target"
    (List.init St.retry_budget (fun _ -> St.Continue) @ [ St.Retarget "timeout" ])
    verdicts;
  Alcotest.(check bool) "not finished" false (St.finished fetcher);
  let s = St.stats fetcher in
  Alcotest.(check (list int)) "handed record holds the fetcher's counts"
    [ s.St.meta_fetched; s.St.objects_fetched; s.St.bytes_fetched; s.St.retries ]
    [ tally.St.meta_fetched; tally.St.objects_fetched; tally.St.bytes_fetched; tally.St.retries ]

let test_retarget_rejections () =
  let _, src = synthetic ~seed:13L () in
  let _, dst = synthetic ~seed:13L () in
  let _, digest = checkpoint src ~seq:1 in
  (* Thirteen sources, every one answering the head broadcast with a root
     that does not match the certified digest. *)
  let tamper ~src:_ m =
    match m with
    | St.Head_reply h -> St.Head_reply { h with app_root = Digest.zero }
    | m -> m
  in
  let r = drive ~tamper ~sources:(List.init 13 Fun.id) ~src ~dst ~seq:1 ~digest () in
  Alcotest.(check int) "every head rejected" 13 r.stats.St.heads_rejected;
  Alcotest.(check (list verdict)) "the twelfth rejection re-targets"
    (List.init (St.reject_limit - 1) (fun _ -> St.Continue) @ [ St.Retarget "rejections" ])
    (List.filteri (fun i _ -> i < St.reject_limit) r.verdicts)

let suite =
  [
    Alcotest.test_case "window reached, never exceeded" `Quick test_window_never_exceeded;
    Alcotest.test_case "quarantined source receives no fetches" `Quick
      test_quarantined_source_gets_nothing;
    Alcotest.test_case "chunked objects reassemble and verify" `Quick
      test_chunked_objects_reassemble;
    Alcotest.test_case "cache hit skips the network fetch" `Quick test_cache_hit_skips_fetch;
    Alcotest.test_case "byzantine chunk source cannot stall recovery" `Quick
      test_byzantine_chunks_cannot_stall;
    Alcotest.test_case "retarget after stalled rounds" `Quick test_retarget_stalled;
    Alcotest.test_case "retarget past the retry budget" `Quick test_retarget_timeout;
    Alcotest.test_case "retarget at the rejection limit" `Quick test_retarget_rejections;
  ]
