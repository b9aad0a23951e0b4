(* Properties of a replica's mode and its timers, over random event
   sequences driven into one bare replica of an f = 1 group.  Its fake
   net keeps the set of live timers the way the engine does: a timer is
   live from [set_timer] until it fires, is cancelled, or falls due while
   the node is down. *)

module M = Base_bft.Message
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Digest = Base_crypto.Digest_t
module Gen = QCheck2.Gen
open Gen

let config = Types.make_config ~f:1 ~n_clients:1 ()

let chains = Base_crypto.Auth.create ~seed:17L ~n_principals:config.n_principals

let me = 2

let client = config.n

let others = List.filter (fun r -> r <> me) (List.init config.n Fun.id)

type event =
  | Request
  | Pre_prepare  (** for the next slot, from the view's primary *)
  | Prepares  (** for the next slot, from every other backup *)
  | Commits  (** for the next slot, from every other replica *)
  | View_changes of int  (** f+1 for the next view, from the others but this one *)
  | New_view  (** for the current view, from its primary *)
  | Status_quorum of int  (** every other replica reports a lower view *)
  | Fetch_start
  | Fetch_complete
  | Fetch_abort
  | Fire of int  (** the k-th live timer, by id, modulo their number *)
  | Reboot of int  (** bit k set: the k-th live timer fell due while down *)

let show = function
  | Request -> "Request"
  | Pre_prepare -> "Pre_prepare"
  | Prepares -> "Prepares"
  | Commits -> "Commits"
  | View_changes k -> Printf.sprintf "View_changes %d" k
  | New_view -> "New_view"
  | Status_quorum k -> Printf.sprintf "Status_quorum %d" k
  | Fetch_start -> "Fetch_start"
  | Fetch_complete -> "Fetch_complete"
  | Fetch_abort -> "Fetch_abort"
  | Fire k -> Printf.sprintf "Fire %d" k
  | Reboot mask -> Printf.sprintf "Reboot %d" mask

let gen_event =
  frequency
    [
      (4, return Request);
      (3, return Pre_prepare);
      (3, return Prepares);
      (3, return Commits);
      (2, map (fun k -> View_changes k) (int_range 0 2));
      (2, return New_view);
      (2, map (fun k -> Status_quorum k) (int_range 0 3));
      (2, return Fetch_start);
      (2, return Fetch_complete);
      (1, return Fetch_abort);
      (4, map (fun k -> Fire k) (int_range 0 7));
      (2, map (fun mask -> Reboot mask) (int_range 0 15));
    ]

let gen_events = list_size (int_range 1 60) gen_event

let print_events events = String.concat "; " (List.map show events)

(* What the properties find, one flag per property. *)
type verdict = {
  mutable executed_while_fetching : bool;
  mutable fetch_ended_without_timer : bool;
  mutable timers_broken : bool;
}

let zero_rows_digest = Replica.checkpoint_digest ~app_digest:Digest.zero ~client_rows:[]

let run events =
  let live = Hashtbl.create 8 and armed = ref 0 in
  (* The PRE-PREPARE of each (view, seq), whoever made it first: the
     replica as primary, or [slot] on the primary's behalf. *)
  let slots = Hashtbl.create 8 in
  let net =
    {
      Helpers.silent_net with
      M.send =
        (fun ~dst:_ env ->
          match env.M.body with
          | M.Pre_prepare pp -> Hashtbl.replace slots (pp.view, pp.seq) pp
          | _ -> ());
      set_timer =
        (fun ~after_us:_ tm ->
          incr armed;
          Hashtbl.replace live !armed tm;
          !armed);
      cancel_timer = Hashtbl.remove live;
    }
  in
  let verdict =
    { executed_while_fetching = false; fetch_ended_without_timer = false; timers_broken = false }
  in
  let replica = ref None in
  let r =
    Helpers.bare_replica ~net ~config ~chains me ~on_execute:(fun ~read_only:_ _ ->
        match !replica with
        | Some r when Replica.status r = Replica.Fetching -> verdict.executed_while_fetching <- true
        | Some _ | None -> ())
  in
  replica := Some r;
  let seal sender body = M.seal chains.(sender) ~sender ~n_receivers:config.n body in
  let deliver sender body = Replica.receive r (seal sender body) in
  let primary view = Types.shard_primary config ~shard:0 view in
  let timestamp = ref 0L in
  let fetch_seq = ref 0 in
  let live_timers () =
    Hashtbl.fold (fun id tm acc -> (id, tm) :: acc) live []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let vc_timeouts () =
    List.filter (fun (_, tm) -> match tm with Replica.Vc_timeout _ -> true | Status_tick -> false)
      (live_timers ())
  in
  let slot () =
    let view = Replica.view r and seq = Replica.last_executed r + 1 in
    match Hashtbl.find_opt slots (view, seq) with
    | Some pp -> pp
    | None ->
      let requests =
        if Int64.compare !timestamp 0L > 0 then
          [ { M.client; timestamp = !timestamp; operation = "op"; read_only = false } ]
        else []
      in
      let digest = Digest.of_string (M.encode_batch requests ~nondet:"") in
      let pp = { M.view; seq; digest; requests; nondet = "" } in
      Hashtbl.replace slots (view, seq) pp;
      pp
  in
  let vote (pp : M.pre_prepare) replica =
    { M.view = pp.view; seq = pp.seq; digest = pp.digest; replica }
  in
  let step event =
    let was_fetching = Replica.status r = Replica.Fetching in
    (match event with
    | Request ->
      timestamp := Int64.succ !timestamp;
      deliver client
        (M.Request { client; timestamp = !timestamp; operation = "op"; read_only = false })
    | Pre_prepare ->
      let pp = slot () in
      if primary pp.view <> me then deliver (primary pp.view) (M.Pre_prepare pp)
    | Prepares ->
      let pp = slot () in
      List.iter
        (fun o -> if o <> primary pp.view then deliver o (M.Prepare (vote pp o)))
        others
    | Commits ->
      let pp = slot () in
      List.iter (fun o -> deliver o (M.Commit (vote pp o))) others
    | View_changes k ->
      let omitted = List.nth others k in
      List.iter
        (fun o ->
          if o <> omitted then
            deliver o
              (M.View_change
                 {
                   new_view = Replica.view r + 1;
                   last_stable = Replica.low_watermark r;
                   stable_digest = Digest.zero;
                   prepared = [];
                   replica = o;
                 }))
        others
    | New_view ->
      let view = Replica.view r in
      if view > 0 && primary view <> me then
        deliver (primary view)
          (M.New_view
             {
               nv_view = view;
               nv_view_changes = List.map (fun o -> (o, Replica.low_watermark r)) others;
               nv_pre_prepares = [];
             })
    | Status_quorum k ->
      let view = Replica.view r in
      if view > 0 then
        List.iter
          (fun o ->
            deliver o
              (M.Status
                 {
                   st_view = k mod view;
                   st_last_exec = Replica.last_executed r;
                   st_h = Replica.low_watermark r;
                   st_replica = o;
                 }))
          others
    | Fetch_start ->
      if not was_fetching then begin
        fetch_seq := Replica.last_executed r;
        Replica.force_fetch r ~seq:!fetch_seq ~digest:zero_rows_digest
      end
    | Fetch_complete ->
      if was_fetching then
        Replica.fetch_complete r ~seq:!fetch_seq ~app_digest:Digest.zero ~client_rows:[]
    | Fetch_abort -> Replica.abort_fetch r
    | Fire k -> (
      match live_timers () with
      | [] -> ()
      | timers ->
        let id, tm = List.nth timers (k mod List.length timers) in
        Hashtbl.remove live id;
        Replica.on_timer r tm)
    | Reboot mask ->
      List.iteri
        (fun k (id, _) -> if mask land (1 lsl k) <> 0 then Hashtbl.remove live id)
        (live_timers ());
      Replica.on_reboot r);
    let status = Replica.status r in
    (match event with
    | Fetch_complete | Fetch_abort when was_fetching && status = Replica.View_changing ->
      if not (List.mem (Replica.Vc_timeout (Replica.view r)) (List.map snd (vc_timeouts ()))) then
        verdict.fetch_ended_without_timer <- true
    | _ -> ());
    let n = List.length (vc_timeouts ()) in
    if n > 1 || (n > 0 && status = Replica.Fetching) then verdict.timers_broken <- true
  in
  List.iter step events;
  verdict

let prop_no_execute_while_fetching =
  Helpers.qtest ~count:500 ~print:print_events "no execute upcall while Fetching" gen_events
    (fun events -> not (run events).executed_while_fetching)

let prop_fetch_end_arms_view_change =
  Helpers.qtest ~count:500 ~print:print_events
    "a fetch that ends in View_changing leaves its Vc_timeout armed" gen_events (fun events ->
      not (run events).fetch_ended_without_timer)

let prop_one_view_change_timer =
  Helpers.qtest ~count:500 ~print:print_events
    "at most one live Vc_timeout, and none while Fetching" gen_events (fun events ->
      not (run events).timers_broken)

let suite =
  [ prop_no_execute_while_fetching; prop_fetch_end_arms_view_change; prop_one_view_change_timer ]
