(* Cross-backend differential trace: one seeded NFS workload replayed
   through four structurally different implementations (btree, fat, hash,
   log) behind the conformance wrapper.  Every k-th operation the full
   abstract state is digested; the digests must be byte-identical across
   backends at every checkpoint — the strong form of the paper's claim
   that the abstraction function erases implementation nondeterminism
   continuously along a trace, not just at the end of one. *)

module TC = Test_conformance
module Spec = Base_nfs.Abstract_spec
module Service = Base_core.Service
module Prng = Base_util.Prng
module Sha256 = Base_crypto.Sha256

let backends = [ "btree"; "fat"; "hash"; "log" ]

let state_digest (w : Service.wrapper) =
  Sha256.digest_list (List.init TC.n_objects (fun i -> w.Service.get_obj i))

let test_trace ~seed ~n ~k () =
  let rng = Prng.create seed in
  let model = Spec.create ~n_objects:TC.n_objects in
  (* Distinct wrapper seeds on purpose: backend-local nondeterminism
     (allocation order, implementation timestamps) must not leak into the
     abstract state. *)
  let ws =
    List.mapi
      (fun i name -> (name, TC.make_wrapper name ~seed:(Int64.of_int (1000 + i))))
      backends
  in
  let checkpoints = ref 0 in
  for step = 1 to n do
    let call = TC.gen_call rng model in
    let ts = Int64.of_int (step * 1000) in
    (* Advance the model so gen_call keeps drawing live object ids. *)
    ignore (TC.model_exec model ~ts call);
    let replies = List.map (fun (name, w) -> (name, TC.wrapper_exec w ~ts call)) ws in
    (match replies with
    | (ref_name, ref_reply) :: rest ->
      List.iter
        (fun (name, reply) ->
          if not (String.equal ref_reply reply) then
            Alcotest.failf "step %d: %s reply differs from %s" step name ref_name)
        rest
    | [] -> assert false);
    if step mod k = 0 || step = n then begin
      incr checkpoints;
      match List.map (fun (name, w) -> (name, state_digest w)) ws with
      | (ref_name, ref_digest) :: rest ->
        List.iter
          (fun (name, digest) ->
            if not (String.equal ref_digest digest) then
              Alcotest.failf "step %d: abstract-state digest of %s differs from %s (%s vs %s)"
                step name ref_name (Base_util.Hex.encode digest) (Base_util.Hex.encode ref_digest))
          rest
      | [] -> assert false
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "trace hit %d digest checkpoints" !checkpoints)
    true
    (!checkpoints >= n / k)

let suite =
  [
    Alcotest.test_case "seeded trace: digests agree every 25 ops" `Quick
      (test_trace ~seed:0xD1FFL ~n:500 ~k:25);
    Alcotest.test_case "second seed: digests agree every 40 ops" `Quick
      (test_trace ~seed:0xABCDL ~n:320 ~k:40);
  ]
