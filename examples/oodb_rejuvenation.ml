(* Software rejuvenation of a replicated object database.

   All four replicas run the *same* non-deterministic OODB engine (random
   internal object identifiers, local version clocks) from different seeds —
   the configuration the paper's abstract describes.  The conformance
   wrapper keeps the abstract states identical, and staggered proactive
   recovery periodically reboots each replica and repairs its state from the
   group.

   Run with: dune exec examples/oodb_rejuvenation.exe *)

module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
open Base_oodb.Oodb_proto

let n_objects = 64

let () =
  let config = Base_bft.Types.make_config ~checkpoint_period:16 ~log_window:32 ~f:1 ~n_clients:1 () in
  let engine_cell = ref None in
  let make_wrapper rid =
    let now () =
      match !engine_cell with
      | Some e -> Engine.local_clock e rid
      | None -> 0L
    in
    Base_oodb.Oodb_wrapper.make ~seed:(Int64.of_int (1000 + rid)) ~now ~n_objects ()
  in
  let sys = Runtime.create ~config ~make_wrapper ~n_clients:1 () in
  engine_cell := Some (Runtime.engine sys);
  let call c =
    decode_reply
      (Runtime.invoke_sync sys ~client:0 ~read_only:(read_only_call c)
         ~operation:(encode_call c) ())
  in
  (* Build a small object graph: a root pointing at two "accounts". *)
  let new_obj () = match call New with R_oid o -> o | _ -> failwith "new" in
  let alice = new_obj () and bob = new_obj () in
  ignore (call (Set_field (alice, "name", "alice")));
  ignore (call (Set_field (alice, "balance", "100")));
  ignore (call (Set_field (bob, "name", "bob")));
  ignore (call (Set_field (bob, "balance", "250")));
  ignore (call (Set_ref (root_aoid, "alice", alice)));
  ignore (call (Set_ref (root_aoid, "bob", bob)));
  (match call (Get root_aoid) with
  | R_value { refs; _ } ->
    Printf.printf "root object references: %s\n"
      (String.concat ", " (List.map (fun (f, (o : aoid)) -> Printf.sprintf "%s->%d.%d" f o.index o.gen) refs))
  | _ -> failwith "get root");
  (* Turn on rejuvenation and keep updating balances while every replica is
     rebooted in turn. *)
  Runtime.enable_proactive_recovery ~reboot_us:100_000 ~period_us:1_200_000 sys;
  for day = 1 to 30 do
    ignore (call (Set_field (alice, "balance", string_of_int (100 + day))));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 150))
  done;
  (* Stop the watchdogs and let the last repair finish before inspecting. *)
  Runtime.disable_proactive_recovery sys;
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 3.0)) (Runtime.engine sys);
  (match call (Get_field (alice, "balance")) with
  | R_field (Some v) -> Printf.printf "alice's balance after 30 updates: %s\n" v
  | _ -> failwith "get_field");
  Printf.printf "\nrecoveries per replica:\n";
  Array.iter
    (fun node ->
      Printf.printf "  replica %d: %d recoveries, %d objects fetched during repair\n"
        node.Runtime.rid node.Runtime.recovery_stats.Runtime.recoveries
        node.Runtime.recovery_stats.Runtime.fetched.Base_core.State_transfer.objects_fetched)
    (Runtime.replicas sys);
  (* The replicas' concrete object tokens all differ; their abstract states
     are identical. *)
  Printf.printf "\nabstract roots: ";
  Array.iter
    (fun node ->
      Format.printf "%a " Base_crypto.Digest_t.pp
        (Base_core.Objrepo.current_root node.Runtime.repo))
    (Runtime.replicas sys);
  print_newline ()
