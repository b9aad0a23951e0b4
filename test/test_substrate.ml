(* Unit and property tests for the substrate libraries: PRNG, heap, hex,
   stats, SHA-256/HMAC vectors, XDR round-trips, partition tree, object
   repository, simulator. *)

module Prng = Base_util.Prng
module Hex = Base_util.Hex
module Stats = Base_util.Stats
module Sha256 = Base_crypto.Sha256
module Hmac = Base_crypto.Hmac
module Digest = Base_crypto.Digest_t
module Auth = Base_crypto.Auth
module Xdr = Base_codec.Xdr
module Tree = Base_core.Partition_tree
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time

(* --- PRNG ------------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a max_int) (Prng.int b max_int)
  done

let test_prng_bounds () =
  let r = Prng.create 3L in
  for _ = 1 to 10_000 do
    let v = Prng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  (* The uniform float behind [bernoulli] lies in [0, 1): probability 0
     never fires, probability 1 always does. *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "float range: p = 0" false (Prng.bernoulli r 0.0);
    Alcotest.(check bool) "float range: p = 1" true (Prng.bernoulli r 1.0)
  done

let test_prng_uniformity () =
  (* Chi-square-ish sanity: 8 buckets over 80k draws stay within 5%. *)
  let r = Prng.create 1234L in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Prng.int r 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.115 && frac < 0.135))
    buckets

(* --- Heap ------------------------------------------------------------------- *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  let input = [ 5; 3; 9; 1; 7; 3; 0; 12; 5 ] in
  List.iter (Heap.push h) input;
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "sorted" (List.sort compare input) (drain [])

let test_heap_fifo_ties () =
  (* Equal keys pop in insertion order (simulation determinism). *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "fifo ties" [ "z"; "a"; "b"; "c" ] order

let heap_prop =
  Helpers.qtest ~count:200 "heap drains sorted" QCheck2.Gen.(list int) (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* --- Hex ---------------------------------------------------------------------- *)

(* The inverse of [Hex.encode], which the library does not need. *)
let hex_decode h =
  let nibble c = int_of_string ("0x" ^ String.make 1 c) in
  String.init (String.length h / 2) (fun i ->
      Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))

let hex_roundtrip =
  Helpers.qtest ~count:200 "hex round-trip" QCheck2.Gen.string (fun s ->
      hex_decode (Hex.encode s) = s)

(* --- Stats --------------------------------------------------------------------- *)

let test_stats () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.p50;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max

(* --- SHA-256 / HMAC / SipHash ------------------------------------------------------------- *)

let test_sha256_vectors () =
  List.iter
    (fun (name, msg, expected) ->
      Alcotest.(check string) name expected (Hex.encode (Sha256.digest msg)))
    Sha256_kat.vectors

(* Tags from OpenSSL's SipHash-2-4 (test/kat/gen_siphash_kat.sh), as the
   8 little-endian bytes [Auth] puts on the wire. *)
let test_siphash_vectors () =
  List.iter
    (fun (n, suffix, expected) ->
      Alcotest.(check string) (Printf.sprintf "length %d" n) expected
        (Siphash_kat.hex ?suffix (Siphash_kat.message n)))
    Siphash_kat.vectors

let test_sha256_incremental () =
  (* Chunked updates produce the same digest as one-shot hashing. *)
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let rec feed off =
    if off < String.length data then begin
      let n = min 97 (String.length data - off) in
      Sha256.update ctx (String.sub data off n);
      feed (off + n)
    end
  in
  feed 0;
  Alcotest.(check string) "incremental = one-shot" (Sha256.digest data) (Sha256.finalize ctx)

let test_hmac_vectors () =
  (* RFC 4231 test cases 1, 2 and 3. *)
  let check ~key msg expected =
    Alcotest.(check string) "hmac" expected (Hex.encode (Hmac.mac ~key msg))
  in
  check ~key:(String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check ~key:"Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"

let test_auth_keychains () =
  let chains = Auth.create ~seed:5L ~n_principals:5 in
  let msg = "authenticate me" in
  let macs = Auth.authenticator chains.(1) ~n:5 msg in
  for receiver = 0 to 4 do
    Alcotest.(check bool) "verifies" true
      (Auth.check chains.(receiver) ~sender:1 msg ~mac:macs.(receiver))
  done;
  (* Principal 2 cannot forge principal 1's MAC to principal 0. *)
  let forged = Auth.mac chains.(2) ~receiver:0 msg in
  Alcotest.(check bool) "forgery rejected" false (Auth.check chains.(0) ~sender:1 msg ~mac:forged);
  (* Key refresh invalidates old MACs. *)
  Auth.refresh_keys chains 1;
  Alcotest.(check bool) "stale mac rejected after refresh" false
    (Auth.check chains.(0) ~sender:1 msg ~mac:macs.(0))

(* --- XDR ------------------------------------------------------------------------ *)

let test_xdr_basic () =
  let e = Xdr.encoder () in
  Xdr.u32 e 42;
  Xdr.i64 e (-7L);
  Xdr.bool e true;
  Xdr.opaque e "hello";
  Xdr.list e Xdr.u32 [ 1; 2; 3 ];
  Xdr.option e Xdr.str (Some "x");
  let d = Xdr.decoder (Xdr.contents e) in
  Alcotest.(check int) "u32" 42 (Xdr.read_u32 d);
  Alcotest.(check int64) "i64" (-7L) (Xdr.read_i64 d);
  Alcotest.(check bool) "bool" true (Xdr.read_bool d);
  Alcotest.(check string) "opaque" "hello" (Xdr.read_opaque d);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Xdr.read_list d Xdr.read_u32);
  Alcotest.(check (option string)) "option" (Some "x") (Xdr.read_option d Xdr.read_str);
  Xdr.expect_end d

let test_xdr_padding () =
  (* Opaque data pads to 4-byte multiples, as RFC 1014 requires. *)
  List.iter
    (fun len ->
      let e = Xdr.encoder () in
      Xdr.opaque e (String.make len 'x');
      let total = String.length (Xdr.contents e) in
      Alcotest.(check int) (Printf.sprintf "len %d" len) (4 + ((len + 3) / 4 * 4)) total)
    [ 0; 1; 2; 3; 4; 5; 7; 8 ]

let test_xdr_errors () =
  let raises f = try f () |> ignore; false with Xdr.Decode_error _ -> true in
  Alcotest.(check bool) "truncated" true
    (raises (fun () -> Xdr.read_u32 (Xdr.decoder "ab")));
  Alcotest.(check bool) "trailing" true
    (raises (fun () -> Xdr.expect_end (Xdr.decoder "abcd")));
  Alcotest.(check bool) "bad bool" true
    (raises (fun () -> Xdr.read_bool (Xdr.decoder "\x00\x00\x00\x07")))

(* An encoder function that calls [Xdr.encode] itself finds the scratch
   busy: the nested call gets a fresh encoder, and the outer one keeps
   writing where it left off. *)
let test_xdr_encode_reentrant () =
  let inner = ref "" in
  let outer =
    Xdr.encode
      (fun e s ->
        Xdr.u32 e 7;
        inner := Xdr.encode Xdr.opaque s;
        Xdr.opaque e !inner;
        Xdr.u32 e 9)
      "nested"
  in
  Alcotest.(check string) "inner bytes" "\000\000\000\006nested\000\000" !inner;
  let d = Xdr.decoder outer in
  Alcotest.(check int) "outer head" 7 (Xdr.read_u32 d);
  Alcotest.(check string) "outer carries inner" !inner (Xdr.read_opaque d);
  Alcotest.(check int) "outer tail" 9 (Xdr.read_u32 d);
  Xdr.expect_end d;
  (* An encoder function that raises leaves the scratch usable. *)
  (match Xdr.encode (fun _ () -> raise Exit) () with
  | _ -> Alcotest.fail "encode swallowed the exception"
  | exception Exit -> ());
  Alcotest.(check string) "after a raise" "\000\000\000\001" (Xdr.encode Xdr.u32 1)

let xdr_opaque_roundtrip =
  Helpers.qtest ~count:200 "xdr opaque round-trip" QCheck2.Gen.string (fun s ->
      let e = Xdr.encoder () in
      Xdr.opaque e s;
      let d = Xdr.decoder (Xdr.contents e) in
      let got = Xdr.read_opaque d in
      Xdr.expect_end d;
      got = s)

let xdr_list_roundtrip =
  Helpers.qtest ~count:200 "xdr string-list round-trip" QCheck2.Gen.(list string) (fun xs ->
      let e = Xdr.encoder () in
      Xdr.list e Xdr.str xs;
      let d = Xdr.decoder (Xdr.contents e) in
      let got = Xdr.read_list d Xdr.read_str in
      Xdr.expect_end d;
      got = xs)

(* --- Partition tree --------------------------------------------------------------- *)

let test_tree_basics () =
  let t = Tree.create ~n_leaves:100 ~branching:4 in
  Alcotest.(check int) "leaves" 100 (Tree.width t ~level:(Tree.levels t - 1));
  let d = Digest.of_string "x" in
  let before = Tree.root t in
  Tree.set_leaves t [ (42, d) ];
  Alcotest.(check bool) "root changed" false (Digest.equal before (Tree.root t));
  Alcotest.(check bool) "leaf stored" true (Digest.equal d (Tree.leaf t 42))

let test_tree_interior_consistency () =
  let t = Tree.create ~n_leaves:37 ~branching:3 in
  for i = 0 to 36 do
    Tree.set_leaves t [ (i, Digest.of_string (string_of_int i)) ]
  done;
  (* Every interior node equals the digest of its children. *)
  for level = 0 to Tree.levels t - 2 do
    for index = 0 to Tree.width t ~level - 1 do
      let children = Tree.children t ~level ~index in
      let expected = Digest.combine (Array.to_list children) in
      Alcotest.(check bool)
        (Printf.sprintf "node %d.%d" level index)
        true
        (Digest.equal expected (Tree.node t ~level ~index))
    done
  done

let tree_incremental_prop =
  (* Incremental updates give the same root as rebuilding from scratch. *)
  Helpers.qtest ~count:50 "tree incremental = rebuild"
    QCheck2.Gen.(list (pair (int_bound 63) (small_string ~gen:printable)))
    (fun updates ->
      let a = Tree.create ~n_leaves:64 ~branching:4 in
      let b = Tree.create ~n_leaves:64 ~branching:4 in
      List.iter (fun (i, s) -> Tree.set_leaves a [ (i, Digest.of_string s) ]) updates;
      (* Rebuild: apply only the last write per leaf, in any order. *)
      let final = Hashtbl.create 16 in
      List.iter (fun (i, s) -> Hashtbl.replace final i s) updates;
      Hashtbl.iter (fun i s -> Tree.set_leaves b [ (i, Digest.of_string s) ]) final;
      Digest.equal (Tree.root a) (Tree.root b))

let test_tree_copy_isolated () =
  let t = Tree.create ~n_leaves:16 ~branching:4 in
  Tree.set_leaves t [ (3, Digest.of_string "three") ];
  let snapshot = Tree.copy t in
  Tree.set_leaves t [ (3, Digest.of_string "mutated") ];
  Alcotest.(check bool) "snapshot unchanged" true
    (Digest.equal (Tree.leaf snapshot 3) (Digest.of_string "three"))

(* --- Simulator ---------------------------------------------------------------------- *)

let sim_config () =
  Engine.default_config ~size_of:String.length ~label_of:(fun s -> s)

let test_sim_delivery_order () =
  let engine = Engine.create { (sim_config ()) with jitter_us = 0 } in
  let got = ref [] in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ msg -> got := msg :: !got);
  Engine.send engine ~src:0 ~dst:1 "first";
  Engine.send engine ~src:0 ~dst:1 "second";
  Engine.run engine;
  Alcotest.(check (list string)) "fifo same-latency" [ "first"; "second" ] (List.rev !got)

let test_sim_timers () =
  let engine = Engine.create (sim_config ()) in
  let fired = ref [] in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  let note name () = fired := name :: !fired in
  let _t1 = Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 10) (note "a") in
  let t2 = Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 5) (note "b") in
  Engine.cancel_timer engine t2;
  Engine.run engine;
  Alcotest.(check (list string)) "only uncancelled" [ "a" ] !fired

(* A timer belongs to its node: one that comes due while the node is down
   is gone for good, even once the node is back. *)
let test_sim_timer_dropped_on_down_node () =
  let engine = Engine.create (sim_config ()) in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  let fired = ref false in
  ignore (Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 10) (fun () -> fired := true));
  Engine.set_node_up engine 0 false;
  Engine.run engine;
  Engine.set_node_up engine 0 true;
  Engine.run engine;
  Alcotest.(check bool) "dropped" false !fired

(* Only the node's state when the timer comes due matters, not when it was
   armed. *)
let test_sim_timer_armed_while_down () =
  let engine = Engine.create (sim_config ()) in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ _ -> ());
  Engine.set_node_up engine 0 false;
  let fired = ref false in
  ignore (Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 10) (fun () -> fired := true));
  ignore
    (Engine.set_timer engine ~node:1 ~after:(Sim_time.of_ms 5) (fun () ->
         Engine.set_node_up engine 0 true));
  Engine.run engine;
  Alcotest.(check bool) "fired after the node came back" true !fired

(* Cancelling a timer that is due at the same instant as the canceller, but
   armed after it, still keeps its callback from running. *)
let test_sim_cancel_same_instant () =
  let engine = Engine.create (sim_config ()) in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  let ran = ref false in
  let victim = ref (-1) in
  ignore
    (Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 5) (fun () ->
         Engine.cancel_timer engine !victim));
  victim := Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 5) (fun () -> ran := true);
  Engine.run engine;
  Alcotest.(check bool) "cancelled callback never ran" false !ran

(* The engine forgets a timer once it pops: cancelling one that a down node
   already dropped leaves nothing behind, however often it happens. *)
let test_sim_cancel_after_drop_holds_nothing () =
  let engine = Engine.create (sim_config ()) in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  let cycle () =
    let id = Engine.set_timer engine ~node:0 ~after:(Sim_time.of_ms 1) ignore in
    Engine.set_node_up engine 0 false;
    Engine.run engine;
    Engine.set_node_up engine 0 true;
    Engine.cancel_timer engine id
  in
  (* Warm up first: the clock leaves its static zero on the first pop. *)
  for _ = 1 to 10 do
    cycle ()
  done;
  let before = Obj.reachable_words (Obj.repr engine) in
  for _ = 1 to 10_000 do
    cycle ()
  done;
  Alcotest.(check int) "engine words after 10 000 cycles" before
    (Obj.reachable_words (Obj.repr engine))

(* Timers due at the same instant run in arming order, whatever their node,
   and one armed for "now" from a callback runs after those already due. *)
let test_sim_equal_time_order () =
  let engine = Engine.create (sim_config ()) in
  for id = 0 to 2 do
    Engine.add_node engine ~id (fun ~src:_ _ -> ())
  done;
  let order = ref [] in
  let note i () = order := i :: !order in
  let arm node f = ignore (Engine.set_timer engine ~node ~after:(Sim_time.of_ms 7) f) in
  arm 2 (note 0);
  arm 0 (fun () ->
      note 1 ();
      ignore (Engine.set_timer engine ~node:0 ~after:Sim_time.zero (note 9)));
  arm 1 (note 2);
  arm 0 (note 3);
  arm 2 (note 4);
  Engine.run engine;
  Alcotest.(check (list int)) "arming order" [ 0; 1; 2; 3; 4; 9 ] (List.rev !order)

let test_sim_partition () =
  let engine = Engine.create (sim_config ()) in
  let got = ref 0 in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ _ -> incr got);
  Engine.partition engine [ 0 ] [ 1 ];
  Engine.send engine ~src:0 ~dst:1 "lost";
  Engine.run engine;
  Alcotest.(check int) "partitioned" 0 !got;
  Engine.heal engine;
  Engine.send engine ~src:0 ~dst:1 "arrives";
  Engine.run engine;
  Alcotest.(check int) "healed" 1 !got

let test_sim_down_node_loses () =
  let engine = Engine.create (sim_config ()) in
  let got = ref 0 in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ _ -> incr got);
  Engine.set_node_up engine 1 false;
  Engine.send engine ~src:0 ~dst:1 "lost";
  Engine.run engine;
  Engine.set_node_up engine 1 true;
  Engine.send engine ~src:0 ~dst:1 "kept";
  Engine.run engine;
  Alcotest.(check int) "only post-reboot delivery" 1 !got

let test_sim_clock_skew () =
  let engine = Engine.create (sim_config ()) in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:2 (fun ~src:_ _ -> ());
  Engine.send engine ~src:0 ~dst:1 "tick";
  Engine.run engine;
  let clocks = List.init 3 (fun i -> Engine.local_clock engine i) in
  Alcotest.(check bool) "clocks differ" true
    (List.sort_uniq compare clocks = List.sort compare clocks
    && List.length (List.sort_uniq compare clocks) > 1)

let test_sim_bandwidth_cost () =
  (* A 100 KB message takes ~8 ms at 100 Mbit/s, far above base latency. *)
  let engine = Engine.create { (sim_config ()) with jitter_us = 0 } in
  let at = ref Sim_time.zero in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ _ -> at := Engine.now engine);
  Engine.send engine ~src:0 ~dst:1 (String.make 100_000 'x');
  Engine.run engine;
  let ms = Sim_time.to_sec !at *. 1e3 in
  Alcotest.(check bool) (Printf.sprintf "tx time %f ms" ms) true (ms > 7.0 && ms < 10.0)

(* Count [src] as a one-file tree, through the path the E4 counts take. *)
let count_source src =
  let path = Filename.temp_file "loc_count" ".ml" in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  let c = Base_util.Loc_count.count_path path in
  Sys.remove path;
  c

let test_loc_count () =
  let src = "let x = 1 (* comment; with ; semis *)\n\nlet s = \"str;\" ;;\n" in
  let c = count_source src in
  Alcotest.(check int) "lines" 2 c.Base_util.Loc_count.lines;
  Alcotest.(check int) "semicolons" 2 c.Base_util.Loc_count.semicolons;
  (* A character literal spelling a double quote opens no string. *)
  List.iter
    (fun quote ->
      let src = Printf.sprintf "let q = %s\nlet x = 1;\nlet y = 2;\nlet z = 3;\n" quote in
      let c = count_source src in
      Alcotest.(check int) (quote ^ " lines") 4 c.Base_util.Loc_count.lines;
      Alcotest.(check int) (quote ^ " semicolons") 3 c.Base_util.Loc_count.semicolons)
    [ "'\"'"; "'\\\"'" ]

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    heap_prop;
    hex_roundtrip;
    Alcotest.test_case "stats summary" `Quick test_stats;
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac RFC4231 vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "auth keychains + refresh" `Quick test_auth_keychains;
    Alcotest.test_case "xdr basic" `Quick test_xdr_basic;
    Alcotest.test_case "xdr padding" `Quick test_xdr_padding;
    Alcotest.test_case "xdr errors" `Quick test_xdr_errors;
    Alcotest.test_case "xdr encode re-entrant" `Quick test_xdr_encode_reentrant;
    xdr_opaque_roundtrip;
    xdr_list_roundtrip;
    Alcotest.test_case "partition tree basics" `Quick test_tree_basics;
    Alcotest.test_case "partition tree interior nodes" `Quick test_tree_interior_consistency;
    tree_incremental_prop;
    Alcotest.test_case "partition tree snapshot" `Quick test_tree_copy_isolated;
    Alcotest.test_case "sim delivery order" `Quick test_sim_delivery_order;
    Alcotest.test_case "sim timers + cancel" `Quick test_sim_timers;
    Alcotest.test_case "sim timer dropped on down node" `Quick test_sim_timer_dropped_on_down_node;
    Alcotest.test_case "sim timer armed while down" `Quick test_sim_timer_armed_while_down;
    Alcotest.test_case "sim cancel at the same instant" `Quick test_sim_cancel_same_instant;
    Alcotest.test_case "sim cancel after a drop holds nothing" `Quick
      test_sim_cancel_after_drop_holds_nothing;
    Alcotest.test_case "sim equal-time timer order" `Quick test_sim_equal_time_order;
    Alcotest.test_case "sim partitions" `Quick test_sim_partition;
    Alcotest.test_case "sim down node" `Quick test_sim_down_node_loses;
    Alcotest.test_case "sim clock skew" `Quick test_sim_clock_skew;
    Alcotest.test_case "sim bandwidth cost" `Quick test_sim_bandwidth_cost;
    Alcotest.test_case "loc counter" `Quick test_loc_count;
    Alcotest.test_case "siphash known answers (OpenSSL)" `Quick test_siphash_vectors;
  ]
