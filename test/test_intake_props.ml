(* Properties of the client table in [Base_bft.Intake], over random
   interleavings of what a replica does to it: a client's request arrives,
   the primary batches one, a PRE-PREPARE orders one (possibly again, as
   across view changes), the next ordered request executes, a replica
   vouches for one, and a state transfer merges a table that is as far
   ahead or further. *)

module M = Base_bft.Message
module Types = Base_bft.Types
module Intake = Base_bft.Intake
module Gen = QCheck2.Gen
open Gen

let f = 1

(* Clients 4, 5 and 6, and shard 0's internal client. *)
let config = Types.make_config ~f ~n_clients:3 ()

let clients = [ 4; 5; 6 ]

let internal = Types.internal_client ~shard:0

type op =
  | Arrive of int * int  (** client, timestamp: the client's own request *)
  | Batch of int * int  (** the primary claims the request for a batch *)
  | Order of int * int  (** a PRE-PREPARE carries it *)
  | Execute  (** the oldest ordered request executes *)
  | Vouch of int * int * int * string  (** sender, client, timestamp, operation *)
  | Merge of (int * int) list  (** client, how far the table is ahead *)
  | To_vouch of int  (** a backup vouches for requests newer than this time *)

let show = function
  | Arrive (c, ts) -> Printf.sprintf "Arrive %d@%d" c ts
  | Batch (c, ts) -> Printf.sprintf "Batch %d@%d" c ts
  | Order (c, ts) -> Printf.sprintf "Order %d@%d" c ts
  | Execute -> "Execute"
  | Vouch (s, c, ts, op) -> Printf.sprintf "Vouch r%d %d@%d %s" s c ts op
  | Merge rows ->
    Printf.sprintf "Merge [%s]"
      (String.concat "; " (List.map (fun (c, d) -> Printf.sprintf "%d+%d" c d) rows))
  | To_vouch after -> Printf.sprintf "To_vouch %d" after

let gen_ts = int_range 0 5

let gen_op =
  let client = oneofl clients in
  frequency
    [
      (4, map2 (fun c ts -> Arrive (c, ts)) client gen_ts);
      (3, map2 (fun c ts -> Batch (c, ts)) (oneofl (internal :: clients)) gen_ts);
      (2, map2 (fun c ts -> Order (c, ts)) (oneofl (internal :: clients)) gen_ts);
      (4, return Execute);
      ( 3,
        map4
          (fun s c ts op -> Vouch (s, c, ts, op))
          (int_range 0 (config.n - 1))
          client gen_ts (oneofl [ "a"; "b" ]) );
      (1, map (fun rows -> Merge rows) (list_size (int_range 0 3) (pair client (int_range 0 2))));
      (1, map (fun after -> To_vouch after) (int_range (-1) 40));
    ]

let gen_ops = list_size (int_range 1 60) gen_op

let print_ops ops = String.concat "\n" (List.map show ops)

let request c ts op = { M.client = c; timestamp = Int64.of_int ts; operation = op; read_only = false }

(* What the run saw, next to the table after each step. *)
type run = {
  t : Intake.t;
  log : M.request Queue.t;  (* ordered, not yet executed *)
  mutable executions : (int * int64) list;  (* newest first *)
  executed : (int, int64) Hashtbl.t;  (* the model's newest executed timestamp *)
  admitted : (int, int64) Hashtbl.t;  (* the model's newest pending own request *)
  vouchers : (int, (int * M.request) list) Hashtbl.t;  (* since the client's last take *)
  mutable vouch_ok : bool;
  mutable clock : int;
}

let get tbl c = Option.value (Hashtbl.find_opt tbl c) ~default:(-1L)

let step run op =
  run.clock <- run.clock + 1;
  let now = Int64.of_int run.clock in
  match op with
  | Arrive (c, ts) -> (
    let r = request c ts "op" in
    match Intake.admit run.t r ~digest:(M.request_digest r) ~now with
    | Intake.First | Intake.Repeat ->
      if Int64.compare r.timestamp (get run.admitted c) > 0 then
        Hashtbl.replace run.admitted c r.timestamp
    | Intake.Stale | Intake.Done -> ())
  | Batch (c, ts) ->
    let r = request c ts "op" in
    if Intake.claim run.t r then begin
      ignore (Intake.assign run.t r ~seq:run.clock);
      Queue.add r run.log
    end
  | Order (c, ts) ->
    let r = request c ts "op" in
    if not (Types.is_internal_client c) then ignore (Intake.backup_holds run.t r);
    Queue.add r run.log
  | Execute -> (
    match Queue.take_opt run.log with
    | Some r when not (Intake.executed run.t r) ->
      Intake.record run.t r "result";
      run.executions <- (r.client, r.timestamp) :: run.executions;
      if Int64.compare r.timestamp (get run.executed r.client) > 0 then
        Hashtbl.replace run.executed r.client r.timestamp
    | Some _ | None -> ())
  | Vouch (sender, c, ts, op) ->
    let r = request c ts op in
    let seen = (sender, r) :: Option.value (Hashtbl.find_opt run.vouchers c) ~default:[] in
    Hashtbl.replace run.vouchers c seen;
    if Intake.vouch run.t ~sender r ~digest:(M.request_digest r) ~now then begin
      (* f+1 distinct replicas vouched for this very request since the
         client's last voucher was taken. *)
      let senders =
        List.sort_uniq Int.compare
          (List.filter_map (fun (s, r') -> if r' = r then Some s else None) seen)
      in
      if List.length senders < f + 1 then run.vouch_ok <- false;
      Hashtbl.remove run.vouchers c;
      if Int64.compare r.timestamp (get run.admitted c) > 0 then
        Hashtbl.replace run.admitted c r.timestamp
    end
  | Merge rows ->
    (* The transferred table is at or ahead of this one for every client
       that executed anything here. *)
    let ahead c = Option.value (List.assoc_opt c rows) ~default:0 in
    let rows =
      List.filter_map
        (fun c ->
          let last = get run.executed c in
          if Int64.compare last 0L < 0 && not (List.mem_assoc c rows) then None
          else Some (c, Int64.add (Int64.max last 0L) (Int64.of_int (ahead c)), "transferred"))
        clients
    in
    Intake.merge run.t rows;
    List.iter (fun (c, ts, _) -> Hashtbl.replace run.executed c ts) rows
  | To_vouch after ->
    let once = Hashtbl.create 4 in
    Intake.iter_to_vouch run.t ~after:(Int64.of_int after) (fun r ->
        if Hashtbl.mem once r.client || not (Intake.pending run.t ~client:r.client) then
          run.vouch_ok <- false;
        Hashtbl.replace once r.client ())

let run_ops ?(check = fun _ -> true) ops =
  let run =
    {
      t = Intake.create config;
      log = Queue.create ();
      executions = [];
      executed = Hashtbl.create 4;
      admitted = Hashtbl.create 4;
      vouchers = Hashtbl.create 4;
      vouch_ok = true;
      clock = 0;
    }
  in
  let ok = List.for_all (fun op -> step run op; check run) ops in
  (run, ok)

(* External clients only: a merge forgets an internal client's timestamp,
   as the transferred rows carry none. *)
let prop_exactly_once =
  Helpers.qtest ~print:print_ops "each (client, ts) executes once, in timestamp order" gen_ops
    (fun ops ->
      let run, _ = run_ops ops in
      List.for_all
        (fun c ->
          let tss = List.rev (List.filter_map (fun (c', ts) -> if c' = c then Some ts else None) run.executions) in
          let rec increasing = function
            | a :: (b :: _ as rest) -> Int64.compare a b < 0 && increasing rest
            | [ _ ] | [] -> true
          in
          increasing tss)
        clients)

(* A request the client sent, or f+1 replicas vouched for, stays pending
   until the table shows it, or a newer one of its client, executed. *)
let never_dropped run =
  List.for_all
    (fun c ->
      Int64.compare (get run.admitted c) (get run.executed c) <= 0
      || Intake.pending run.t ~client:c)
    clients

let prop_never_dropped =
  Helpers.qtest ~print:print_ops "an admitted request stays pending until executed, across merges"
    gen_ops (fun ops -> snd (run_ops ~check:never_dropped ops))

let prop_vouchers =
  Helpers.qtest ~print:print_ops "a vouched request needs f+1 identical vouchers" gen_ops (fun ops ->
      let run, _ = run_ops ops in
      run.vouch_ok)

let recount run =
  Intake.n_pending run.t
  = List.length (List.filter (fun c -> Intake.pending run.t ~client:c) (internal :: clients))

let prop_n_pending =
  Helpers.qtest ~print:print_ops "n_pending equals a recount" gen_ops (fun ops ->
      snd (run_ops ~check:recount ops))

(* The ordering digest a table computes reads the digest recorded with a
   client's newest heard request.  The table hears requests through their
   envelopes, sealed or adopted from wire bytes whose operation pad may be
   nonzero (decoding accepts it).  A batch mixes the requests heard,
   field-equal copies of them, altered ones (same client and timestamp)
   and unheard ones, and its digest is always the one computed from
   scratch. *)
type item =
  | Heard of int  (** the [i]-th request heard, physically *)
  | Copy of int  (** a copy of it, equal in every field *)
  | Altered of int * string  (** it with another operation *)
  | Unheard of int * int  (** client, timestamp *)

let gen_heard =
  list_size (int_range 0 8)
    (map3
       (fun (c, ts) op flip -> (request c ts op, flip))
       (pair (oneofl clients) gen_ts)
       (oneofl [ ""; "a"; "bb"; "ccc"; "dddd"; "eeeee" ])
       bool)

let gen_item =
  frequency
    [
      (3, map (fun i -> Heard i) nat);
      (2, map (fun i -> Copy i) nat);
      (2, map2 (fun i op -> Altered (i, op)) nat (oneofl [ "a"; "x"; "ccc" ]));
      (2, map2 (fun c ts -> Unheard (c, ts)) (oneofl (-1 :: internal :: clients)) gen_ts);
    ]

let show_case (heard, items, nondet) =
  Printf.sprintf "heard [%s], batch [%s], nondet %S"
    (String.concat "; "
       (List.map
          (fun ((r : M.request), flip) ->
            Printf.sprintf "%d@%Ld %S%s" r.client r.timestamp r.operation
              (if flip then " (pad flipped)" else ""))
          heard))
    (String.concat "; "
       (List.map
          (function
            | Heard i -> Printf.sprintf "Heard %d" i
            | Copy i -> Printf.sprintf "Copy %d" i
            | Altered (i, op) -> Printf.sprintf "Altered %d %S" i op
            | Unheard (c, ts) -> Printf.sprintf "Unheard %d@%d" c ts)
          items))
    nondet

(* The envelope a replica authenticated [r] in: sealed, or adopted from
   its wire bytes, the operation's first pad byte set to 1 if [flip]. *)
let heard_envelope chains (r : M.request) flip =
  let sealed = M.seal chains.(r.client) ~sender:r.client ~n_receivers:config.n (M.Request r) in
  let raw = Bytes.of_string sealed.M.wire in
  let pad = 20 + String.length r.operation in
  if flip && pad < Bytes.length raw - 4 then Bytes.set raw pad '\001';
  match M.of_wire ~sender:r.client ~macs:sealed.M.macs (Bytes.to_string raw) with
  | Ok env -> env
  | Error e -> failwith e

let prop_batch_digest =
  Helpers.qtest ~print:show_case "batch digest: recorded request digests = from scratch"
    (triple gen_heard (list_size (int_range 0 6) gen_item) (oneofl [ ""; "n"; "nondet" ]))
    (fun (heard, items, nondet) ->
      let chains = Base_crypto.Auth.create ~seed:21L ~n_principals:config.n_principals in
      let t = Intake.create config in
      let heard =
        Array.of_list
          (List.map
             (fun (r, flip) ->
               let env = heard_envelope chains r flip in
               let r = match env.M.body with M.Request r -> r | _ -> assert false in
               ignore (Intake.admit t r ~digest:(M.request_digest_of env r) ~now:0L);
               r)
             heard)
      in
      let nth i = heard.(i mod Array.length heard) in
      let batch =
        List.filter_map
          (fun item ->
            match item with
            | Unheard (c, ts) -> Some (request c ts "op")
            | (Heard _ | Copy _ | Altered _) when Array.length heard = 0 -> None
            | Heard i -> Some (nth i)
            | Copy i ->
              let r = nth i in
              Some { r with operation = Bytes.to_string (Bytes.of_string r.operation) }
            | Altered (i, op) -> Some { (nth i) with operation = op })
          items
      in
      Base_crypto.Digest_t.equal (Intake.batch_digest t batch ~nondet)
        (M.batch_digest batch ~nondet))

let suite =
  [ prop_exactly_once; prop_never_dropped; prop_vouchers; prop_n_pending; prop_batch_digest ]
