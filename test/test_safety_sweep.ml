(* Randomised end-to-end safety sweep: across many seeds, with random
   message loss and a random Byzantine behaviour assigned to at most f
   replicas, the system must (a) complete all client operations, (b) return
   results consistent with a single sequential history, and (c) leave all
   honest replicas with identical abstract states. *)

open Helpers
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Faultplan = Base_sim.Faultplan
module Sim_time = Base_sim.Sim_time
module Prng = Base_util.Prng

let behaviors = [| Faultplan.B_honest; Faultplan.B_mute; Faultplan.B_lie; Faultplan.B_equivocate |]

let run_one seed =
  let rng = Prng.create (Int64.of_int (1000 + seed)) in
  let drop_p = if Prng.bernoulli rng 0.5 then 0.0 else 0.03 in
  let sys, kvs = make_system ~seed:(Int64.of_int seed) ~drop_p ~checkpoint_period:8 () in
  (* Afflict one random replica with one random behaviour (possibly Honest). *)
  let villain = Prng.int rng 4 in
  let behavior = Prng.pick rng behaviors in
  Runtime.set_behavior sys villain behavior;
  (* The client's view of its own history: last value written per slot. *)
  let expected = Array.make 8 None in
  for i = 0 to 19 do
    let slot = Prng.int rng 8 in
    let v = Printf.sprintf "s%d-i%d" seed i in
    let reply = set sys ~client:0 slot v in
    if reply <> "ok" then failwith "bad reply";
    expected.(slot) <- Some v;
    (* Interleave reads; they must observe the client's own writes. *)
    if Prng.bernoulli rng 0.5 then begin
      let rslot = Prng.int rng 8 in
      let got = value_part (get sys ~client:0 rslot) in
      let want = Option.value expected.(rslot) ~default:"" in
      if got <> want then
        Alcotest.failf "seed %d (villain %d %s): read %S, wrote %S" seed villain
          (match behavior with
          | Faultplan.B_honest -> "honest"
          | Faultplan.B_mute -> "mute"
          | Faultplan.B_lie -> "liar"
          | Faultplan.B_equivocate -> "equivocator")
          got want
    end
  done;
  (* Let traffic settle, then check that every replica converged: a
     Byzantine replica runs the honest protocol and only what it sends is
     rewritten, so it executes the agreed order too, a mute one included. *)
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 2.0)) (Runtime.engine sys);
  for r = 1 to 3 do
    if kvs.(r).slots <> kvs.(0).slots then
      Alcotest.failf "seed %d: replica %d diverged from 0" seed r
  done

let test_sweep () =
  for seed = 1 to 12 do
    run_one seed
  done

let suite = [ Alcotest.test_case "randomised safety sweep (12 seeds)" `Slow test_sweep ]
