module Digest = Base_crypto.Digest_t
module M = Message

(* The ordering digest of the empty batch with no nondet, the filler of a
   slot nothing prepared at. *)
let empty_digest = M.batch_digest [] ~nondet:""

(* The rebuilt window is capped at [log_window] slots below [max_s]: honest
   view-changes only carry prepared PRE-PREPAREs within one window of their
   stable checkpoint, so the cap is invisible to them, while a Byzantine one
   claiming a far-away [seq] can no longer make this loop (and the
   pre-prepares it allocates) arbitrarily long. *)
let compute_o (config : Types.config) v' (vcs : M.view_change list) =
  let min_s = List.fold_left (fun acc (vc : M.view_change) -> max acc vc.last_stable) 0 vcs in
  let max_s =
    List.fold_left
      (fun acc (vc : M.view_change) ->
        List.fold_left (fun acc (p : M.pre_prepare) -> max acc p.seq) acc vc.prepared)
      min_s vcs
  in
  let count = min (max_s - min_s) config.log_window in
  let o = ref [] in
  for k = 0 to count - 1 do
    let seq = max_s - k in
    let best =
      List.fold_left
        (fun acc (vc : M.view_change) ->
          List.fold_left
            (fun acc (p : M.pre_prepare) ->
              if p.seq <> seq then acc
              else
                match acc with
                | Some (b : M.pre_prepare) when b.view >= p.view -> acc
                | Some _ | None -> Some p)
            acc vc.prepared)
        None vcs
    in
    let pp =
      match best with
      | Some p -> { p with view = v' }
      | None -> { M.view = v'; seq; digest = empty_digest; requests = []; nondet = "" }
    in
    o := pp :: !o
  done;
  (min_s, !o)

let vc_sane (config : Types.config) (vc : M.view_change) =
  vc.last_stable >= 0
  && List.for_all
       (fun (p : M.pre_prepare) ->
         p.seq > vc.last_stable
         && p.seq <= vc.last_stable + config.log_window
         && p.view >= 0 && p.view < vc.new_view
         && List.length p.requests <= config.batch_max
         && Intake.batch_sane config p.requests)
       vc.prepared

type verdict = Install of Types.seqno | Insane | Mismatch

(* The shape check comes first, before any of the NEW-VIEW's numbers are
   adopted: without it a Byzantine primary could teleport [next_seq] (and
   thus the whole log window) to an arbitrary seqno of its choosing. *)
let new_view_verdict (config : Types.config) ~held (nv : M.new_view) =
  let min_s = List.fold_left (fun acc (_, s) -> max acc s) 0 nv.nv_view_changes in
  let held_of (r, _) = List.find_opt (fun (vc : M.view_change) -> vc.replica = r) held in
  let used = List.filter_map held_of nv.nv_view_changes in
  let o_matches (a : M.pre_prepare) (b : M.pre_prepare) =
    a.seq = b.seq && Digest.equal a.digest b.digest
  in
  let sane =
    nv.nv_view > 0
    && List.for_all (fun (_, s) -> s >= 0) nv.nv_view_changes
    && List.for_all
         (fun (pp : M.pre_prepare) ->
           pp.view = nv.nv_view && pp.seq > min_s && pp.seq <= min_s + config.log_window
           && Intake.batch_sane config pp.requests)
         nv.nv_pre_prepares
  in
  if not sane then Insane
  else if List.compare_lengths used nv.nv_view_changes < 0 then
    if List.length nv.nv_view_changes >= Types.quorum config then Install min_s else Mismatch
  else
    let held_s, o = compute_o config nv.nv_view used in
    if
      held_s = min_s
      && List.compare_lengths o nv.nv_pre_prepares = 0
      && List.for_all2 o_matches o nv.nv_pre_prepares
    then Install min_s
    else Mismatch

(* Every (replica, view) vote above [view]: the per-replica minimum view
   over these attains its minimum at the overall minimum, so the target is
   just the smallest voted view. *)
let join_target (config : Types.config) ~view votes =
  let above = List.filter (fun (v, voters) -> v > view && voters <> []) votes in
  let voters = List.sort_uniq Int.compare (List.concat_map snd above) in
  if List.length voters < Types.weak_quorum config then None
  else Some (List.fold_left (fun acc (v, _) -> min acc v) max_int above)

let abandon_target (config : Types.config) ~view peers (prepared : M.pre_prepare list) =
  let lower = List.filter (fun v -> v < view) peers in
  let target = List.fold_left (fun acc v -> max acc v) 0 lower in
  if
    List.length lower >= Types.quorum config - 1
    && not (List.exists (fun (p : M.pre_prepare) -> p.view > target) prepared)
  then Some target
  else None
