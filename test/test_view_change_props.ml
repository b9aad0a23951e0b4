(* Properties of the pure view-change decisions in [Base_bft.View_change],
   over VIEW-CHANGE sets generated from random logs of a group of
   n = 3f + 1 replicas. *)

module M = Base_bft.Message
module Types = Base_bft.Types
module VC = Base_bft.View_change
module Digest = Base_crypto.Digest_t
module Gen = QCheck2.Gen
open Gen

let window = 8

let config f = Types.make_config ~f ~n_clients:4 ~checkpoint_period:4 ~log_window:window ()

(* A client id of both group sizes generated: clients are 4..7 at f = 1 and
   7..10 at f = 2. *)
let client = 7

(* A PRE-PREPARE carrying one request; [tag] names the batch, so two slots
   agree exactly when their tags do. *)
let pp ?(client = client) ~view ~seq tag =
  let r = { M.client; timestamp = Int64.of_int tag; operation = "op"; read_only = false } in
  { M.view; seq; digest = Digest.of_string (string_of_int tag); requests = [ r ]; nondet = "" }

let vc ~new_view ~replica (last_stable, prepared) =
  { M.new_view; last_stable; stable_digest = Digest.zero; prepared; replica }

let empty_digest = M.batch_digest [] ~nondet:""

(* Every [k]-element subset of [xs], in order. *)
let rec subsets k xs =
  match (k, xs) with
  | 0, _ -> [ [] ]
  | _, [] -> []
  | k, x :: rest -> List.map (List.cons x) (subsets (k - 1) rest) @ subsets k rest

let max_view pps = List.fold_left (fun acc (p : M.pre_prepare) -> max acc p.view) (-1) pps

(* --- random logs --------------------------------------------------------------- *)

(* One slot's history across the group: the target PRE-PREPARE [tag] at
   [seq] prepared in view [v] at the 2f + 1 replicas of [quorum], each of
   which may have prepared it again in a later view.  PBFT's safety lemma
   says nobody prepares another batch at [seq] in a view at or above [v];
   the other f replicas prepared nothing there, the same batch, or a
   different one in an earlier view.  The rest of each replica's log is
   arbitrary. *)
type history = {
  f : int;
  seq : int;
  view : int;
  tag : int;
  logs : (int * M.pre_prepare list) array;  (** per replica: last stable, P *)
}

let gen_log ~seq ~own last_stable =
  let* others =
    list_size (int_range 0 5) (triple (int_range 1 window) (int_range 0 5) (int_range 100 104))
  in
  let others =
    List.filter_map
      (fun (off, view, tag) ->
        let s = last_stable + off in
        if s = seq then None else Some (pp ~view ~seq:s tag))
      others
  in
  let prepared = Option.to_list own @ others in
  (* One certificate per slot, as in a replica's log. *)
  return
    ( last_stable,
      List.sort_uniq (fun (a : M.pre_prepare) b -> Int.compare a.seq b.seq) prepared )

let gen_history =
  let* f = int_range 1 2 in
  let n = (3 * f) + 1 in
  let* seq = int_range 5 8 and* view = int_range 0 3 and* tag = int_range 0 99 in
  let* order = shuffle_l (List.init n Fun.id) in
  let quorum = List.filteri (fun i _ -> i <= 2 * f) order in
  let own r =
    if List.mem r quorum then map (fun d -> Some (pp ~view:(view + d) ~seq tag)) (int_range 0 2)
    else
      frequency
        [
          (1, return None);
          (1, map (fun d -> Some (pp ~view:(view + d) ~seq tag)) (int_range 0 2));
          ( 2,
            if view = 0 then return None
            else
              map2
                (fun v other -> Some (pp ~view:v ~seq (tag + 1 + other)))
                (int_range 0 (view - 1)) (int_range 0 9) );
        ]
  in
  let* logs =
    flatten_l
      (List.init n (fun r ->
           let* own = own r and* last_stable = oneofl [ 0; 4 ] in
           gen_log ~seq ~own last_stable))
  in
  return { f; seq; view; tag; logs = Array.of_list logs }

let print_history h =
  let slot (p : M.pre_prepare) = Printf.sprintf "%d@v%d:%s" p.seq p.view (Digest.to_hex p.digest) in
  Printf.sprintf "f=%d target %s\n%s" h.f
    (slot (pp ~view:h.view ~seq:h.seq h.tag))
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun r (ls, p) ->
               Printf.sprintf "  r%d last_stable=%d P=[%s]" r ls
                 (String.concat " " (List.map slot p)))
             h.logs)))

(* A PRE-PREPARE prepared at (seq, v) by 2f + 1 replicas is re-proposed, with
   its digest, by every 2f + 1 VIEW-CHANGEs of any later view. *)
let prop_safety =
  Helpers.qtest ~print:print_history "compute_o keeps every quorum-prepared PRE-PREPARE"
    gen_history (fun h ->
      let config = config h.f in
      let n = Array.length h.logs in
      let latest = Array.fold_left (fun acc (_, p) -> max acc (max_view p)) 0 h.logs in
      let want = (pp ~view:0 ~seq:h.seq h.tag).digest in
      List.for_all
        (fun new_view ->
          List.for_all
            (fun rs ->
              let vcs = List.map (fun r -> vc ~new_view ~replica:r h.logs.(r)) rs in
              let _, o = VC.compute_o config new_view vcs in
              List.for_all (VC.vc_sane config) vcs
              && List.exists
                   (fun (p : M.pre_prepare) ->
                     p.seq = h.seq && p.view = new_view && Digest.equal p.digest want)
                   o)
            (subsets (Types.quorum config) (List.init n Fun.id)))
        [ latest + 1; latest + 2; latest + 5 ])

(* --- O's shape ------------------------------------------------------------------ *)

(* Arbitrary, unchecked VIEW-CHANGEs: stable seqnos and prepared slots far
   enough apart that the log-window cap binds. *)
let gen_raw_vcs =
  let gen_pp = map3 (fun seq view tag -> pp ~view ~seq tag) (int_range 0 40) (int_range 0 5) nat in
  let gen_vc r =
    map2
      (fun ls p -> vc ~new_view:6 ~replica:r (ls, p))
      (int_range 0 20)
      (list_size (int_range 0 6) gen_pp)
  in
  let* k = int_range 0 5 in
  flatten_l (List.init k gen_vc)

let prop_shape =
  Helpers.qtest "compute_o covers (min_s, max_s], capped, holes empty"
    (pair gen_raw_vcs (int_range 1 9))
    (fun (vcs, v') ->
      let min_s, o = VC.compute_o (config 1) v' vcs in
      let all = List.concat_map (fun (v : M.view_change) -> v.prepared) vcs in
      let max_s = List.fold_left (fun acc (p : M.pre_prepare) -> max acc p.seq) min_s all in
      let lo = max min_s (max_s - window) in
      min_s = List.fold_left (fun acc (v : M.view_change) -> max acc v.last_stable) 0 vcs
      && List.map (fun (p : M.pre_prepare) -> p.seq) o
         = List.init (max_s - lo) (fun i -> lo + 1 + i)
      && List.for_all
           (fun (p : M.pre_prepare) ->
             let here = List.filter (fun (q : M.pre_prepare) -> q.seq = p.seq) all in
             let top = max_view here in
             p.view = v'
             &&
             if here = [] then
               p.requests = [] && p.nondet = "" && Digest.equal p.digest empty_digest
             else
               List.exists
                 (fun (q : M.pre_prepare) ->
                   q.view = top && Digest.equal q.digest p.digest && q.requests = p.requests)
                 here)
           o)

(* --- insane messages ------------------------------------------------------------ *)

(* A sane VIEW-CHANGE for view 6 from replica 0, and one claim of it made
   implausible. *)
let gen_insane_vc =
  let* ls = oneofl [ 0; 4 ] in
  let* slots = list_size (int_range 0 4) (pair (int_range 1 window) (int_range 0 5)) in
  let prepared = List.map (fun (off, v) -> pp ~view:v ~seq:(ls + off) off) slots in
  let sane = vc ~new_view:6 ~replica:0 (ls, prepared) in
  let* j = int_range 0 3 in
  let add p = { sane with prepared = sane.prepared @ [ p ] } in
  let too_big =
    { (pp ~view:0 ~seq:(ls + 1) 0) with requests = List.init 17 (fun _ -> M.null_request) }
  in
  let* bad =
    oneofl
      [
        { sane with last_stable = -1 - j };
        add (pp ~view:0 ~seq:(ls - j) 1);
        add (pp ~view:0 ~seq:(ls + window + 1 + j) 1);
        add (pp ~view:(-1 - j) ~seq:(ls + 1) 1);
        add (pp ~view:(6 + j) ~seq:(ls + 1) 1);
        add too_big;
        add (pp ~client:j ~view:0 ~seq:(ls + 1) 1);
      ]
  in
  return (sane, bad)

let prop_insane_vc =
  Helpers.qtest "vc_sane accepts honest and rejects insane VIEW-CHANGEs" gen_insane_vc
    (fun (sane, bad) -> VC.vc_sane (config 1) sane && not (VC.vc_sane (config 1) bad))

(* A primary's own NEW-VIEW for a later view, built the way the primary
   builds it, from a 2f + 1 subset of a random history's VIEW-CHANGEs. *)
let gen_new_view =
  let* h = gen_history in
  let config = config h.f in
  let* order = shuffle_l (List.init (Array.length h.logs) Fun.id) in
  let* extra = int_range 1 3 in
  let new_view = Array.fold_left (fun acc (_, p) -> max acc (max_view p)) 0 h.logs + extra in
  let vcs = List.map (fun r -> vc ~new_view ~replica:r h.logs.(r)) order in
  let used = List.filteri (fun i _ -> i < Types.quorum config) vcs in
  let min_s, o = VC.compute_o config new_view used in
  let summary = List.map (fun (v : M.view_change) -> (v.replica, v.last_stable)) used in
  let nv = { M.nv_view = new_view; nv_view_changes = summary; nv_pre_prepares = o } in
  return (config, vcs, used, min_s, nv)

let gen_insane_nv =
  let* config, vcs, _, min_s, nv = gen_new_view in
  let* j = int_range 0 3 in
  let add p = { nv with nv_pre_prepares = nv.nv_pre_prepares @ [ p ] } in
  let v' = nv.nv_view in
  let* bad =
    oneofl
      [
        { nv with nv_view = 0 };
        { nv with nv_view_changes = nv.nv_view_changes @ [ (9, -1 - j) ] };
        add (pp ~view:(v' - 1 - j) ~seq:(min_s + 1) 1);
        add (pp ~view:(v' + 1 + j) ~seq:(min_s + 1) 1);
        add (pp ~view:v' ~seq:(min_s - j) 1);
        add (pp ~view:v' ~seq:(min_s + window + 1 + j) 1);
        add (pp ~client:(12 + j) ~view:v' ~seq:(min_s + 1) 1);
      ]
  in
  return (config, vcs, bad)

let prop_insane_nv =
  Helpers.qtest "insane NEW-VIEWs are Insane, held or not" gen_insane_nv (fun (config, vcs, nv) ->
      VC.new_view_verdict config ~held:vcs nv = VC.Insane
      && VC.new_view_verdict config ~held:[] nv = VC.Insane)

(* --- NEW-VIEW verdicts ---------------------------------------------------------- *)

let prop_own_new_view =
  Helpers.qtest "a primary's own NEW-VIEW installs at min_s" gen_new_view
    (fun (config, vcs, used, min_s, nv) ->
      (* Held exactly, held among every replica's VIEW-CHANGE, or trusted
         on the quorum's word. *)
      List.for_all
        (fun held -> VC.new_view_verdict config ~held nv = VC.Install min_s)
        [ used; List.rev vcs; [] ])

(* The claim a backup can check against its own copies: whatever a summary
   seqno is altered to, the NEW-VIEW installs only if the highest claimed
   seqno, which the replica would adopt as [min_s], is still the held
   one. *)
let gen_altered =
  let* config, vcs, used, min_s, nv = gen_new_view in
  (* Lowering a highest seqno is the alteration most likely to stay sane. *)
  let tops = List.mapi (fun k (_, s) -> if s = min_s then [ k ] else []) nv.nv_view_changes in
  let* i =
    frequency
      [ (1, int_range 0 (List.length nv.nv_view_changes - 1)); (1, oneofl (List.concat tops)) ]
  in
  let* s' = frequency [ (1, int_range 0 (min_s + 6)); (2, int_range 0 (max 0 (min_s - 1))) ] in
  let summary = List.mapi (fun k (r, s) -> if k = i then (r, s') else (r, s)) nv.nv_view_changes in
  let s_i = snd (List.nth nv.nv_view_changes i) in
  return (config, vcs, used, min_s, s_i <> s', { nv with nv_view_changes = summary })

let sane_shape (nv : M.new_view) =
  let min_s = List.fold_left (fun acc (_, s) -> max acc s) 0 nv.nv_view_changes in
  List.for_all
    (fun (p : M.pre_prepare) -> p.seq > min_s && p.seq <= min_s + window)
    nv.nv_pre_prepares

let prop_altered_summary =
  Helpers.qtest "an altered stable seqno is a mismatch once it moves min_s" gen_altered
    (fun (config, vcs, used, min_s, altered, nv) ->
      let claimed = List.fold_left (fun acc (_, s) -> max acc s) 0 nv.nv_view_changes in
      let expect =
        if not (sane_shape nv) then VC.Insane
        else if claimed = min_s then VC.Install min_s
        else VC.Mismatch
      in
      QCheck2.assume altered;
      List.for_all (fun held -> VC.new_view_verdict config ~held nv = expect) [ used; vcs ])

let prop_altered_o =
  Helpers.qtest "a dropped or altered O slot is a mismatch" (pair gen_new_view bool)
    (fun ((config, vcs, _, _, nv), drop) ->
      QCheck2.assume (nv.nv_pre_prepares <> []);
      let o =
        match List.rev nv.nv_pre_prepares with
        | _ :: rest when drop -> List.rev rest
        | last :: rest -> List.rev ({ last with digest = Digest.of_string "forged" } :: rest)
        | [] -> []
      in
      VC.new_view_verdict config ~held:vcs { nv with nv_pre_prepares = o } = VC.Mismatch)

(* --- liveness rules ------------------------------------------------------------- *)

(* Each replica's voted views, plus views whose tables hold no voters. *)
let gen_votes =
  let* f = int_range 1 2 in
  let n = (3 * f) + 1 in
  let* view = int_range 0 5 in
  let* voted = list_repeat n (list_size (int_range 0 2) (int_range 0 8)) in
  let* empty = list_size (int_range 0 3) (int_range 0 8) in
  return (f, view, voted, empty)

let prop_join =
  Helpers.qtest "join_target: smallest voted view once f+1 replicas vote above" gen_votes
    (fun (f, view, voted, empty) ->
      let config = config f in
      let views = List.sort_uniq Int.compare (List.concat voted @ empty) in
      let table =
        List.map
          (fun v ->
            (v, List.concat (List.mapi (fun r vs -> if List.mem v vs then [ r ] else []) voted)))
          views
      in
      let above = List.filter (List.exists (fun v -> v > view)) voted in
      let voted_above = List.filter (fun v -> v > view) (List.concat voted) in
      let expect =
        if List.length above >= f + 1 then Some (List.fold_left min max_int voted_above) else None
      in
      VC.join_target config ~view table = expect
      && VC.join_target config ~view (List.filter (fun (_, rs) -> rs <> []) table) = expect)

let gen_abandon =
  let* f = int_range 1 2 in
  let n = (3 * f) + 1 in
  let* view = int_range 1 6 in
  let* peers = list_repeat (n - 1) (int_range 0 7) in
  let* prepared = list_size (int_range 0 3) (int_range 0 7) in
  return (f, view, peers, List.map (fun v -> pp ~view:v ~seq:1 0) prepared)

let prop_abandon =
  Helpers.qtest "abandon_target: highest lower view once 2f peers are below" gen_abandon
    (fun (f, view, peers, prepared) ->
      let lower = List.filter (fun v -> v < view) peers in
      let target = List.fold_left max 0 lower in
      let expect =
        if List.length lower >= 2 * f && max_view prepared <= target then Some target else None
      in
      VC.abandon_target (config f) ~view peers prepared = expect)

let suite =
  [
    prop_safety;
    prop_shape;
    prop_insane_vc;
    prop_insane_nv;
    prop_own_new_view;
    prop_altered_summary;
    prop_altered_o;
    prop_join;
    prop_abandon;
  ]
