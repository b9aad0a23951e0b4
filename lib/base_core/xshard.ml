module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Message = Base_bft.Message
module Replica = Base_bft.Replica

(* See doc/sharding.md.  Each shard is an independent agreement instance
   over a slice of the abstract object array; an operation whose declared
   footprint spans several shards is ordered by the lowest one (the
   coordinator) and blocked on lock requests injected into every other
   involved shard (the participants).  All events below are derived from
   committed sequence numbers, so every correct node drives the protocol
   through exactly the same states without extra communication. *)

type cells = {
  replica : shard:int -> int -> Replica.t;
  repo : shard:int -> int -> Objrepo.t;
  wrapper : shard:int -> int -> Service.wrapper;
}

(* One participant shard of a cross-shard operation, as seen by one node.
   [xp_arrived] is the deterministic lock-acquisition event: the shard's
   agreement instance reached the lock request at its committed execution
   head and parked.  [xp_obliged] pairs the liveness obligation registered
   with {!Replica.add_external_pending} so it is cleared exactly once. *)
type xpart = {
  xp_shard : int;
  mutable xp_obliged : bool;
  mutable xp_arrived : bool;
}

(* Per-node record of one cross-shard operation, keyed by the client
   request's globally unique [(client, timestamp)] identity.  Entries are
   never removed: a missing entry is indistinguishable from a completed one,
   and late duplicate locks (view-change re-proposals) must keep resolving
   to "done" rather than re-opening the protocol. *)
type xop = {
  x_client : int;
  x_ts : int64;
  x_coord : int;  (* coordinator shard: the smallest in the footprint *)
  x_parts : xpart list;  (* ascending shard order *)
  mutable x_lock_ts : int64;  (* agreed lock timestamp; [-1L] until derived *)
  mutable x_done : bool;  (* the joint operation executed on this node *)
}

(* Per coordinator shard: (head seq, next k). *)
type lock_clock = (int * int) array

(* When one committed batch carries several cross-shard operations, queries
   at head sequence [seq] hand out [seq * (batch_max + 1) + k] with [k]
   counting up in batch order, which is agreed — so every node derives the
   same duplicate-free timestamps without communicating. *)
let lock_clock ~n_shards = Array.make n_shards (-1, 0)

let next_lock_ts clock ~batch_max ~coord ~seq =
  let mark_seq, k = clock.(coord) in
  let k = if mark_seq = seq then k else 0 in
  clock.(coord) <- (seq, k + 1);
  Int64.of_int ((seq * (batch_max + 1)) + k)

(* Cross-shard bookkeeping of one physical node (shared by its per-shard
   replica cells). *)
type xnode = {
  xn_rid : int;
  xn_ops : (string, xop) Hashtbl.t;  (* key "client:timestamp" *)
  xn_clock : lock_clock;
  mutable xn_kick_armed : bool;
}

type 'msg t = {
  config : Types.config;
  engine : 'msg Engine.t;
  cells : cells;
  nodes : xnode array;
}

let create ~config ~engine ~cells =
  let n_shards = Types.n_shards config in
  {
    config;
    engine;
    cells;
    nodes =
      Array.init config.Types.n (fun rid ->
          {
            xn_rid = rid;
            xn_ops = Hashtbl.create 16;
            xn_clock = lock_clock ~n_shards;
            xn_kick_armed = false;
          });
  }

(* An operation's [modify] touched an object outside the shards it is
   entitled to.  Raised before any mutation of the foreign object (wrappers
   call [modify] first), so aborting here is deterministic and leaves every
   shard's state consistent. *)
exception Footprint

(* The deterministic reply of an aborted out-of-footprint execution: every
   correct replica of the shard returns it, so agreement is unaffected; the
   client sees it as a service-level error. *)
let abort_result = "#xshard-abort"

let key ~client ~ts = Printf.sprintf "%d:%Ld" client ts

(* Find-or-create: the first side to observe the operation on this node —
   coordinator gate or participant lock — materialises the record. *)
let get xn ~client ~ts ~coord ~parts =
  let key = key ~client ~ts in
  match Hashtbl.find_opt xn.xn_ops key with
  | Some x -> x
  | None ->
    let x =
      {
        x_client = client;
        x_ts = ts;
        x_coord = coord;
        x_parts =
          List.map (fun s -> { xp_shard = s; xp_obliged = false; xp_arrived = false }) parts;
        x_lock_ts = -1L;
        x_done = false;
      }
    in
    Hashtbl.add xn.xn_ops key x;
    x

(* Lock requests ride the ordinary MACed request/pre-prepare path under a
   virtual client id ([Types.internal_client ~shard:coordinator_shard]); the
   operation string names the cross-shard operation they guard. *)
let lock_operation ~coord ~client ~ts ~parts =
  Printf.sprintf "xlock:%d:%d:%Ld:%s" coord client ts
    (String.concat "," (List.map string_of_int parts))

let parse_lock ~n_shards operation =
  let shard s =
    match int_of_string_opt s with Some k when k >= 0 && k < n_shards -> Some k | _ -> None
  in
  match String.split_on_char ':' operation with
  | [ "xlock"; coord; client; ts; parts ] -> (
    let fields = String.split_on_char ',' parts in
    let parts = List.filter_map shard fields in
    match (shard coord, int_of_string_opt client, Int64.of_string_opt ts) with
    | Some coord, Some client, Some ts when List.length parts = List.length fields ->
      Some (coord, client, ts, parts)
    | _, _, _ -> None)
  | _ -> None

let submit_lock t xn x p =
  Replica.submit_internal
    (t.cells.replica ~shard:p.xp_shard xn.xn_rid)
    {
      Message.client = Types.internal_client ~shard:x.x_coord;
      timestamp = x.x_lock_ts;
      operation =
        lock_operation ~coord:x.x_coord ~client:x.x_client ~ts:x.x_ts
          ~parts:(List.map (fun q -> q.xp_shard) x.x_parts);
      read_only = false;
    }

(* Re-submission heartbeat: a participant primary that crashed (or lied)
   before ordering a lock would otherwise stall the coordinator forever.
   The cadence matches the view-change timeout, so by the time the kick
   fires a wedged participant shard has rotated its primary. *)
let rec arm_kick t xn =
  if not xn.xn_kick_armed then begin
    xn.xn_kick_armed <- true;
    ignore
      (Engine.set_timer t.engine ~node:xn.xn_rid
         ~after:(Sim_time.of_us t.config.Types.viewchange_timeout_us) (fun () ->
           rekick t xn ~resubmit:true))
  end

(* Re-arm the kick while any operation is unfinished, after re-submitting
   its missing locks when [resubmit].  Iteration is in sorted key order —
   never in hash order — to keep runs deterministic. *)
and rekick t xn ~resubmit =
  xn.xn_kick_armed <- false;
  let live =
    Hashtbl.fold (fun k _ acc -> k :: acc) xn.xn_ops []
    |> List.sort String.compare
    |> List.filter_map (fun key ->
           match Hashtbl.find_opt xn.xn_ops key with
           | Some x when (not x.x_done) && Int64.compare x.x_lock_ts 0L >= 0 -> Some x
           | Some _ | None -> None)
  in
  if resubmit then
    List.iter
      (fun x -> List.iter (fun p -> if not p.xp_arrived then submit_lock t xn x p) x.x_parts)
      live;
  if live <> [] then arm_kick t xn

let rebooted t rid = rekick t t.nodes.(rid) ~resubmit:false

(* The declared footprint of [operation], as the ascending list of shards it
   touches.  Pure protocol decode — every node's wrapper answers alike. *)
let footprint_shards t (w : Service.wrapper) ~operation =
  match w.Service.oids_of_op ~operation with
  | [] -> []
  | oids ->
    List.sort_uniq Int.compare (List.map (fun oid -> Types.shard_of_oid t.config oid) oids)

let ready t ~rid ~shard ~client ~timestamp ~operation =
  let xn = t.nodes.(rid) in
  if Types.is_internal_client client then begin
    match parse_lock ~n_shards:(Types.n_shards t.config) operation with
    | None -> true  (* malformed internal request: execute as a no-op *)
    | Some (coord, xclient, xts, parts) ->
      let x = get xn ~client:xclient ~ts:xts ~coord ~parts in
      if Int64.compare x.x_lock_ts 0L < 0 then x.x_lock_ts <- timestamp;
      if x.x_done then true
      else begin
        (match List.find_opt (fun p -> p.xp_shard = shard) x.x_parts with
        | Some p when not p.xp_arrived ->
          p.xp_arrived <- true;
          if p.xp_obliged then begin
            p.xp_obliged <- false;
            Replica.clear_external_pending (t.cells.replica ~shard rid)
          end;
          (* The coordinator cell may be parked waiting for this arrival. *)
          if List.for_all (fun q -> q.xp_arrived) x.x_parts then
            Replica.resume_execution (t.cells.replica ~shard:x.x_coord rid)
        | Some _ | None -> ());
        x.x_done
      end
  end
  else begin
    match footprint_shards t (t.cells.wrapper ~shard rid) ~operation with
    | [] | [ _ ] -> true
    | coord :: parts when coord = shard ->
      let x = get xn ~client ~ts:timestamp ~coord ~parts in
      if x.x_done then true
      else begin
        if Int64.compare x.x_lock_ts 0L < 0 then begin
          (* First query: the committed head sequence is agreed, so the
             derived lock timestamp is identical on every node. *)
          let seq = Replica.last_executed (t.cells.replica ~shard rid) + 1 in
          x.x_lock_ts <-
            next_lock_ts xn.xn_clock ~batch_max:t.config.Types.batch_max ~coord ~seq
        end;
        let waiting = List.filter (fun p -> not p.xp_arrived) x.x_parts in
        List.iter
          (fun p ->
            if not p.xp_obliged then begin
              p.xp_obliged <- true;
              (* Keep the participant shard's view-change timer armed while
                 the lock is outstanding: a mute participant primary must
                 not be able to park the coordinator forever. *)
              Replica.add_external_pending (t.cells.replica ~shard:p.xp_shard rid)
            end;
            submit_lock t xn x p)
          waiting;
        (match waiting with
        | [] -> true
        | _ :: _ ->
          arm_kick t xn;
          false)
      end
    | _ :: _ -> true  (* misrouted: execute; foreign modifies abort deterministically *)
  end

(* Route one [modify] upcall to the owning shard's repo (index-shifted into
   its slice).  [allowed] is the shard set the current execution holds: its
   own shard, plus — for a joint operation on the coordinator — every
   participant currently parked at its lock. *)
let modify t ~rid ~allowed i =
  let owner = Types.shard_of_oid t.config i in
  if not (List.exists (fun s -> s = owner) allowed) then raise Footprint;
  let n_objects = (t.cells.wrapper ~shard:owner rid).Service.n_objects in
  let lo, _ = Types.shard_range t.config ~n_objects owner in
  Objrepo.modify (t.cells.repo ~shard:owner rid) (i - lo)

let execute t ~rid ~shard ~client ~timestamp ~operation ~nondet ~read_only =
  if Types.is_internal_client client then ""
  else begin
    let w = t.cells.wrapper ~shard rid in
    let shards = footprint_shards t w ~operation in
    let joint =
      match shards with
      | coord :: _ :: _ when coord = shard && not read_only -> true
      | _ :: _ | [] -> false
    in
    let allowed = if joint then shards else [ shard ] in
    let result =
      try
        w.Service.execute ~client ~operation ~nondet ~read_only
          ~modify:(fun i -> modify t ~rid ~allowed i)
      with Footprint -> abort_result
    in
    (if joint then
       match shards with
       | coord :: parts ->
         let x = get t.nodes.(rid) ~client ~ts:timestamp ~coord ~parts in
         if not x.x_done then begin
           x.x_done <- true;
           (* Release: each participant's gate now answers true; kick their
              execution loops so the parked batches drain. *)
           List.iter
             (fun p -> Replica.resume_execution (t.cells.replica ~shard:p.xp_shard rid))
             x.x_parts
         end
       | [] -> ());
    result
  end

(* --- per-shard views -------------------------------------------------------- *)

let shard_view config ~shard (w : Service.wrapper) =
  if Types.n_shards config <= 1 then w
  else begin
    let lo, hi = Types.shard_range config ~n_objects:w.Service.n_objects shard in
    {
      w with
      Service.n_objects = hi - lo;
      get_obj = (fun i -> w.Service.get_obj (lo + i));
      put_objs = (fun objs -> w.Service.put_objs (List.map (fun (i, v) -> (lo + i, v)) objs));
    }
  end
