(* Per-call allocation budgets on the message path.

   Every message the protocol seals or checks pays the authenticator calls
   once per receiver, so their garbage multiplies into the per-request
   allocation the benchmark ledger reports.  The budgets pin what the
   allocation-free SHA-256/HMAC reached, measured exactly with
   [Gc.minor_words] (everything here is small enough to be born in the
   minor heap):

   - [Auth.check]: the key cache's [Some], nothing else;
   - [Auth.mac]: that plus the 8-byte tag;
   - [Digest_t.of_string]: the 32-byte digest, nothing else, whatever the
     input length;
   - [Sha256.update_bytes]: nothing — the compression kernel is a
     [noalloc] external taking the position untagged.
   - [Message.seal_for] of a REPLY: its wire, tag, MAC slot and envelope
     — a reply's MAC covers its bytes, so no digest.

   A change that puts a context, a padding buffer, a boxed counter or a
   boxed kernel argument back on these paths fails here, not only as a
   drift in the ledger.

   Abstract objects are hashed and encoded without copies:
   [Service.object_digest] allocates only its digest, a one-shot encoding
   ([Abstract_spec.encode_entry], [Nfs_proto.encode_reply]) only its
   result, and a PRE-PREPARE re-send nothing that grows with the batch.
   Results of 8 KB are born in the major heap, so these budgets count it
   too.

   Per-request bookkeeping has budgets too: executing a request must not
   cost more with 256 registered clients than with one (no scan of the
   client table), a client's reply tally allocates only the vote it
   records, and a fault-free engine send allocates no closures, bare or
   inside a runtime.

   File contents are shared, not copied: on the four string-backed
   implementations a whole-file read allocates nothing that grows with the
   file and at most 128 B, its handle parsed in place, a write allocates its result once, and the abstraction function
   of an 8 KB file allocates little beyond its encoded entry. *)

module Auth = Base_crypto.Auth
module Digest = Base_crypto.Digest_t
module Sha256 = Base_crypto.Sha256
module M = Base_bft.Message

let calls = 1_000

(* Bytes allocated per call of [f], after one warm-up call (which fills the
   key cache).  The only other allocation in the window is the boxed float
   of the second [Gc.minor_words] reading, shared by all [calls]. *)
let words_to_bytes w = int_of_float (w *. float_of_int (Sys.word_size / 8))

let bytes_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  let after = Gc.minor_words () in
  words_to_bytes (after -. before) / calls

let within_budget what ~budget f =
  let used = bytes_per_call f in
  if used > budget then Alcotest.failf "%s allocates %d B per call, budget %d B" what used budget

(* Words allocated so far in either heap: [Gc.minor_words] is exact, and
   the major heap allocated directly what it gained beyond promotions. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Like [bytes_per_call], counting the major heap too.  The minor heap is
   emptied first, so nothing allocated before the window is promoted in it. *)
let total_bytes_per_call f =
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let before = allocated_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  let after = allocated_words () in
  words_to_bytes (after -. before) / calls

(* Heap bytes of a string of [len] bytes: header plus padded payload. *)
let string_bytes len = (len / 8 + 2) * 8

let within_result_budget what ~extra f =
  let len = String.length (f ()) in
  let used = total_bytes_per_call f and budget = string_bytes len + extra in
  if used > budget then
    Alcotest.failf "%s allocates %d B per call for a %d-byte result, budget %d B" what used len
      budget

let chains = Auth.create ~seed:5L ~n_principals:8

let digest = Sys.opaque_identity (Digest.raw (Digest.of_string "authenticated body"))

let test_check () =
  let mac = Auth.mac chains.(2) ~receiver:5 digest in
  Alcotest.(check bool) "genuine MAC accepted" true (Auth.check chains.(5) ~sender:2 digest ~mac);
  within_budget "Auth.check" ~budget:16 (fun () -> Auth.check chains.(5) ~sender:2 digest ~mac);
  let suffix = Some '\003' in
  let mac = Auth.mac chains.(2) ~receiver:5 ?suffix digest in
  Alcotest.(check bool) "genuine suffixed MAC accepted" true
    (Auth.check chains.(5) ~sender:2 ?suffix digest ~mac);
  within_budget "Auth.check ~suffix" ~budget:16 (fun () ->
      Auth.check chains.(5) ~sender:2 ?suffix digest ~mac)

(* The tag is an 8-byte string, 24 B with its header and padding word,
   plus the key cache's 16 B [Some]. *)
let test_mac () =
  within_budget "Auth.mac" ~budget:(string_bytes 8 + 16) (fun () ->
      Auth.mac chains.(2) ~receiver:5 digest)

let test_digest_of_string () =
  let input = Sys.opaque_identity (String.make 64 'b') in
  within_budget "Digest_t.of_string (64 B)" ~budget:48 (fun () -> Digest.of_string input)

(* 8 KB is 128 blocks: the whole-block run goes to the kernel in one call. *)
let test_large_inputs () =
  let input = Sys.opaque_identity (String.make 8192 'c') in
  within_budget "Digest_t.of_string (8 KB)" ~budget:48 (fun () -> Digest.of_string input);
  let ctx = Sha256.init () and data = Sys.opaque_identity (Bytes.make 8192 'd') in
  within_budget "Sha256.update_bytes (8 KB)" ~budget:0 (fun () ->
      Sha256.update_bytes ctx data ~pos:0 ~len:8192)

(* Envelope verification adds nothing on top of the MAC check once the
   digest is memoised: the shard byte comes from a preallocated option. *)
let test_envelope_verify () =
  List.iter
    (fun shard ->
      let env =
        M.seal chains.(1) ~shard ~sender:1 ~n_receivers:4
          (M.Commit { view = 0; seq = 9; digest = Digest.of_string "batch"; replica = 1 })
      in
      Alcotest.(check bool) "genuine envelope verifies" true (M.verify chains.(3) ~receiver:3 env);
      within_budget (Printf.sprintf "Message.verify (shard %d)" shard) ~budget:16 (fun () ->
          M.verify chains.(3) ~receiver:3 env))
    [ 0; 2 ]

(* --- abstract objects ---------------------------------------------------- *)

module Service = Base_core.Service
module Spec = Base_nfs.Abstract_spec
module Nfs_proto = Base_nfs.Nfs_proto

let file_8k = Sys.opaque_identity (String.make 8192 'f')

let test_object_digest () =
  let used = total_bytes_per_call (fun () -> Service.object_digest 7 file_8k) in
  if used > 48 then
    Alcotest.failf "Service.object_digest (8 KB) allocates %d B per call, budget 48 B" used

(* Sealing a REPLY hashes nothing: its MAC covers the wire bytes, so with
   an 8 KB result the seal allocates the wire, one tag with its key-cache
   [Some] (40 B), the one-slot MAC array (16 B) and the envelope (72 B) —
   no 32-byte digest and no [Some] around one, on shard 0 or 3.  A seal
   that MACs a digest of the wire allocates 64 B more (the 48 B digest and
   its 16 B [Some]) and fails.  The shard option is built outside the
   measured window. *)
let test_reply_seal () =
  let body = M.Reply { view = 0; timestamp = 1L; client = 6; replica = 1; result = file_8k } in
  List.iter
    (fun shard ->
      let what = Printf.sprintf "Message.seal_for (8 KB REPLY, shard %d)" shard in
      let shard = Some shard in
      within_result_budget what ~extra:128 (fun () ->
          (M.seal_for chains.(1) ?shard ~sender:1 ~receiver:6 body).M.wire))
    [ 0; 3 ]

let test_one_shot_encodings () =
  let meta = { Spec.mode = 0o644; uid = 1; gid = 1; mtime = 5L; ctime = 5L } in
  let entry = { Spec.gen = 3; obj = Spec.File { meta; data = file_8k } } in
  within_result_budget "Abstract_spec.encode_entry (8 KB file)" ~extra:64 (fun () ->
      Spec.encode_entry entry);
  let attr =
    {
      Base_nfs.Nfs_types.ftype = Reg;
      mode = 0o644;
      nlink = 1;
      uid = 1;
      gid = 1;
      size = 8192;
      fsid = 1;
      fileid = 7;
      atime = 5L;
      mtime = 5L;
      ctime = 5L;
    }
  in
  within_result_budget "Nfs_proto.encode_reply (8 KB read)" ~extra:64 (fun () ->
      Nfs_proto.encode_reply (Nfs_proto.R_read (file_8k, attr)))

(* --- per-request bookkeeping ------------------------------------------- *)

module Replica = Base_bft.Replica
module Client = Base_bft.Client
module Types = Base_bft.Types
module Engine = Base_sim.Engine

(* The five envelopes that take one request from arrival to execution at
   the primary: the client's REQUEST, then PREPAREs and COMMITs from
   replicas 1 and 2 (with its own commit, a quorum of three). *)
let ordering_round (config : Types.config) chains ~seq ~client ~timestamp =
  let request = { M.client; timestamp; operation = "op"; read_only = false } in
  let digest = M.batch_digest [ request ] ~nondet:"" in
  let from r body = M.seal chains.(r) ~sender:r ~n_receivers:config.n body in
  [ from client (M.Request request) ]
  @ List.map (fun r -> from r (M.Prepare { view = 0; seq; digest; replica = r })) [ 1; 2 ]
  @ List.map (fun r -> from r (M.Commit { view = 0; seq; digest; replica = r })) [ 1; 2 ]

(* Order and execute [warm] requests at replica 0, the view-0 primary,
   spread over [n_clients] clients so each registers in the client table,
   then return the bytes allocated per executed request over [rounds] more.
   Nothing checkpoints within the run.  The envelopes are sealed before the
   measured window, which covers only [Replica.receive]. *)
let execute_bytes ~n_clients =
  let warm = 256 and rounds = 16 in
  let config =
    Types.make_config ~checkpoint_period:4096 ~log_window:8192 ~f:1 ~n_clients ()
  in
  let chains = Auth.create ~seed:7L ~n_principals:config.n_principals in
  let replica = Helpers.bare_replica ~config ~chains 0 in
  let client k = config.n + (k mod n_clients) in
  let timestamp k = Int64.of_int (k / n_clients) in
  let round k =
    ordering_round config chains ~seq:(k + 1) ~client:(client k) ~timestamp:(timestamp k)
  in
  for k = 0 to warm - 1 do
    List.iter (Replica.receive replica) (round k)
  done;
  let envs = Array.of_list (List.concat (List.init rounds (fun i -> round (warm + i)))) in
  let before = Gc.minor_words () in
  Array.iter (Replica.receive replica) envs;
  let after = Gc.minor_words () in
  Alcotest.(check int) "every request executed" (warm + rounds)
    (Replica.stats replica).Replica.executed_requests;
  words_to_bytes (after -. before) / rounds

let test_replica_execute_client_table () =
  let one = execute_bytes ~n_clients:1 and many = execute_bytes ~n_clients:256 in
  if many > one + 64 then
    Alcotest.failf
      "executing a request with 256 registered clients allocates %d B, with one %d B \
       (budget: one + 64 B)"
      many one

(* A rw request awaiting its f+1 = 2 matching replies, fed the same reply
   from replica 1 over and over: each call verifies, records the vote and
   tallies, and the quorum is never reached. *)
let test_client_reply () =
  let config = Types.make_config ~f:1 ~n_clients:1 () in
  let chains = Auth.create ~seed:3L ~n_principals:config.Types.n_principals in
  let id = config.n in
  let client = Client.create ~config ~id ~keychain:chains.(id) ~net:Helpers.silent_net () in
  Client.invoke client ~operation:"op" (fun _ -> Alcotest.fail "one reply completed the request");
  let reply =
    M.seal_for chains.(1) ~sender:1 ~receiver:id
      (M.Reply { view = 0; timestamp = 0L; client = id; replica = 1; result = "r" })
  in
  within_budget "Client.receive (matching reply)" ~budget:48 (fun () -> Client.receive client reply)

(* One message between two nodes with no link faults: the send, then the
   dispatch that delivers it to a no-op handler. *)
let test_engine_send_dispatch () =
  let config =
    { (Engine.default_config ~size_of:(fun _ -> 64) ~label_of:(fun _ -> "m")) with
      kind_of = (fun _ -> "m") }
  in
  let engine = Engine.create config in
  Engine.add_node engine ~id:0 (fun ~src:_ _ -> ());
  Engine.add_node engine ~id:1 (fun ~src:_ _ -> ());
  within_budget "Engine.send + dispatch" ~budget:280 (fun () ->
      Engine.send engine ~src:0 ~dst:1 ();
      Engine.step engine)

(* The same, on the engine a runtime builds and runs: a [Raw] message to the
   orchestrator pseudo-node, whose handler does nothing, then one step.  The
   first timer is due long after the measured window, so each step delivers
   the message just sent.  Whatever the runtime attaches to its engine is
   paid here on every message. *)
let test_runtime_engine_send_dispatch () =
  let rt = (Base_workload.Systems.make_registers ()).Base_workload.Systems.reg_runtime in
  let engine = Base_core.Runtime.engine rt in
  let orchestrator = (Base_core.Runtime.config rt).Base_bft.Types.n_principals in
  let msg = Base_core.Runtime.Raw { from = 0; shard = 0; macs = [||]; bytes = "" } in
  within_budget "Engine.send + dispatch in a runtime" ~budget:256 (fun () ->
      Engine.send engine ~src:0 ~dst:orchestrator msg;
      Engine.step engine)

(* The view-0 primary re-sends the PRE-PREPARE of an assigned request each
   time the request arrives again.  Returns the bytes one re-send allocates
   for an operation of [op_len] bytes, after checking that the re-sent
   envelope carries the very bytes the first broadcast sealed. *)
let resend_bytes ~op_len =
  let config = Types.make_config ~f:1 ~n_clients:1 () in
  let chains = Auth.create ~seed:9L ~n_principals:config.n_principals in
  let last = ref None in
  let net = { Helpers.silent_net with M.send = (fun ~dst:_ env -> last := Some env) } in
  let primary = Helpers.bare_replica ~net ~config ~chains 0 in
  let client = config.n in
  let request =
    M.seal chains.(client) ~sender:client ~n_receivers:config.n
      (M.Request { client; timestamp = 0L; operation = String.make op_len 'w'; read_only = false })
  in
  let pre_prepare_wire () =
    match !last with
    | Some { M.body = M.Pre_prepare _; wire; _ } -> wire
    | Some _ | None -> Alcotest.fail "the primary sent no PRE-PREPARE"
  in
  Replica.receive primary request;
  let sealed = pre_prepare_wire () in
  let used = total_bytes_per_call (fun () -> Replica.receive primary request) in
  Alcotest.(check bool) "re-send carries the sealed bytes" true (pre_prepare_wire () == sealed);
  used

let test_pre_prepare_resend () =
  let small = resend_bytes ~op_len:16 and large = resend_bytes ~op_len:8192 in
  if large > small + 64 then
    Alcotest.failf
      "a PRE-PREPARE re-send allocates %d B for an 8 KB operation, %d B for a 16 B one \
       (budget: the 16 B case + 64 B)"
      large small

(* Backup 1 hears a client's 8 KB write, then accepts the PRE-PREPARE that
   carries it and broadcasts its PREPARE.  Returns the bytes, in either
   heap, that accepting one PRE-PREPARE allocates, over [rounds] after
   [warm].  The envelopes are sealed before the measured windows, which
   cover only the PRE-PREPARE's [Replica.receive]. *)
let pre_prepare_accept_bytes () =
  let warm = 4 and rounds = 16 in
  let config = Types.make_config ~f:1 ~n_clients:1 () in
  let chains = Auth.create ~seed:19L ~n_principals:config.n_principals in
  let prepares = ref 0 in
  let net =
    {
      Helpers.silent_net with
      M.send =
        (fun ~dst:_ env -> match env.M.body with M.Prepare _ -> incr prepares | _ -> ());
    }
  in
  let backup = Helpers.bare_replica ~net ~config ~chains 1 in
  let client = config.n in
  let seal sender body = M.seal chains.(sender) ~sender ~n_receivers:config.n body in
  let round k =
    let request =
      { M.client; timestamp = Int64.of_int k; operation = String.make 8192 'w'; read_only = false }
    in
    let digest = M.batch_digest [ request ] ~nondet:"" in
    ( seal client (M.Request request),
      seal 0 (M.Pre_prepare { view = 0; seq = k + 1; digest; requests = [ request ]; nondet = "" })
    )
  in
  let rounds_envs = Array.init (warm + rounds) round in
  let used = ref 0. in
  Array.iteri
    (fun k (request, pre_prepare) ->
      Replica.receive backup request;
      Gc.minor ();
      let before = allocated_words () in
      Replica.receive backup pre_prepare;
      if k >= warm then used := !used +. (allocated_words () -. before))
    rounds_envs;
  Alcotest.(check int) "every PRE-PREPARE accepted" ((warm + rounds) * (config.n - 1)) !prepares;
  words_to_bytes !used / rounds

let test_pre_prepare_accept () =
  let used = pre_prepare_accept_bytes () in
  if used >= 1024 then
    Alcotest.failf "accepting a PRE-PREPARE of one 8 KB write allocates %d B, budget < 1 KB" used

(* --- file contents --------------------------------------------------------- *)

module S = Base_fs.Server_intf
module Proto = Base_nfs.Nfs_proto
module Nfs = Base_nfs.Nfs_types

let string_backed = [ "inode"; "hash"; "log"; "btree" ]

let fs_server impl =
  let clock = ref 0L in
  Base_workload.Systems.make_impl impl ~seed:4L ~now:(fun () ->
      clock := Int64.add !clock 1_000L;
      !clock)

let fs_ok = function Ok v -> v | Error e -> Alcotest.fail (Nfs.err_to_string e)

(* A file of [size] bytes named [name] in the root of [srv]; its handle. *)
let file_in srv ~name ~size =
  let fh, _ = fs_ok (srv.S.create ~dir:(srv.S.root ()) ~name ~mode:0o644 ~uid:1 ~gid:1) in
  fs_ok (srv.S.write ~fh ~off:0 ~data:(String.make size 'r'));
  fh

(* A whole-file read returns the stored string: what it allocates does not
   grow with the file. *)
let whole_file_read_bytes impl size =
  let srv = fs_server impl in
  let fh = file_in srv ~name:"f" ~size in
  total_bytes_per_call (fun () -> fs_ok (srv.S.read ~fh ~off:0 ~count:size))

let test_whole_file_read () =
  List.iter
    (fun impl ->
      let small = whole_file_read_bytes impl 1024 and large = whole_file_read_bytes impl 65536 in
      if large > small then
        Alcotest.failf
          "%s: a whole-file read allocates %d B for a 64 KB file, %d B for a 1 KB one \
           (budget: the 1 KB case)"
          impl large small)
    string_backed

(* Nor much at all: the handle is parsed in place, so what is left is the
   lookup and the [Ok] around the result. *)
let test_whole_file_read_small () =
  List.iter
    (fun impl ->
      let used = whole_file_read_bytes impl 65536 in
      if used > 128 then
        Alcotest.failf "%s: a whole-file read allocates %d B, budget 128 B" impl used)
    string_backed

(* An 8 KB append to an 8 KB file builds the 16 KB result in one
   allocation; the rest (handle parsing, timestamps, a log version) stays
   under 1 KB.  Each of [n] files takes one append, so every write in the
   window starts from 8 KB. *)
let test_append () =
  let n = 64 in
  List.iter
    (fun impl ->
      let srv = fs_server impl in
      let fhs = Array.init n (fun i -> file_in srv ~name:(Printf.sprintf "f%d" i) ~size:8192) in
      let data = String.make 8192 'a' in
      Gc.minor ();
      let before = allocated_words () in
      Array.iter (fun fh -> fs_ok (srv.S.write ~fh ~off:8192 ~data)) fhs;
      let used = words_to_bytes (allocated_words () -. before) / n in
      let budget = string_bytes 16384 + 1024 in
      if used > budget then
        Alcotest.failf "%s: an 8 KB append to an 8 KB file allocates %d B, budget %d B" impl used
          budget)
    string_backed

(* The abstraction function encodes the stored string straight into the
   entry: beyond the entry, two handle lookups, the attributes and a few
   small records, under 384 B. *)
let test_get_obj () =
  List.iter
    (fun impl ->
      let server = fs_server impl in
      let w = Base_wrapper.Conformance.make ~server ~n_objects:8 () in
      let exec call =
        Proto.decode_reply
          (w.Service.execute ~client:5 ~operation:(Proto.encode_call call)
             ~nondet:(Service.nondet_of_clock 1L) ~read_only:false ~modify:ignore)
      in
      let oid =
        match exec (Proto.Create (Nfs.root_oid, "f", Nfs.sattr_empty)) with
        | Proto.R_create (oid, _) -> oid
        | _ -> Alcotest.fail "create failed"
      in
      ignore (exec (Proto.Write (oid, 0, String.make 8192 'g')));
      within_result_budget (impl ^ ": Conformance.get_obj (8 KB file)") ~extra:384 (fun () ->
          w.Service.get_obj oid.Nfs.index))
    string_backed

let suite =
  [
    Alcotest.test_case "Auth.check: allocates at most 16 B per call" `Quick test_check;
    Alcotest.test_case "Auth.mac: allocates at most 40 B per call" `Quick test_mac;
    Alcotest.test_case "Digest_t.of_string 64 B: <= 48 B per call" `Quick test_digest_of_string;
    Alcotest.test_case "Message.verify: <= 16 B per call" `Quick test_envelope_verify;
    Alcotest.test_case "8 KB: of_string <= 48 B, update_bytes 0 B per call" `Quick
      test_large_inputs;
    Alcotest.test_case "replica execute: 256 clients <= 1 client + 64 B" `Quick
      test_replica_execute_client_table;
    Alcotest.test_case "Client.receive reply: <= 48 B per call" `Quick test_client_reply;
    Alcotest.test_case "Engine.send + dispatch: <= 280 B per message" `Quick
      test_engine_send_dispatch;
    Alcotest.test_case "Service.object_digest 8 KB: <= 48 B per call" `Quick
      test_object_digest;
    Alcotest.test_case "8 KB entry and read reply: result + 64 B" `Quick
      test_one_shot_encodings;
    Alcotest.test_case "PRE-PREPARE re-send: no wire bytes copied" `Quick
      test_pre_prepare_resend;
    Alcotest.test_case "Engine.send + dispatch in a runtime: <= 256 B per message" `Quick
      test_runtime_engine_send_dispatch;
    Alcotest.test_case "whole-file read: 64 KB file <= 1 KB file" `Quick test_whole_file_read;
    Alcotest.test_case "8 KB append to 8 KB file: 16 KB result + 1 KB" `Quick test_append;
    Alcotest.test_case "Conformance.get_obj 8 KB file: entry + 384 B" `Quick test_get_obj;
    Alcotest.test_case "whole-file read: <= 128 B per call" `Quick test_whole_file_read_small;
    Alcotest.test_case "PRE-PREPARE of an 8 KB write accepted: < 1 KB" `Quick
      test_pre_prepare_accept;
    Alcotest.test_case "REPLY seal, 8 KB result: wire + 128 B, no digest" `Quick test_reply_seal;
  ]
