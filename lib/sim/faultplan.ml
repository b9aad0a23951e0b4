type behavior = B_honest | B_mute | B_lie | B_equivocate

type action =
  | Crash of int
  | Reboot of int
  | Promote of int
  | Crash_standby of int
  | Partition of int list * int list
  | Heal
  | Delay_link of { src : int; dst : int; extra_us : int; for_us : int }
  | Drop_link of { src : int; dst : int; p : float; for_us : int }
  | Corrupt_link of { src : int; dst : int; p : float; for_us : int }
  | Set_behavior of { node : int; behavior : behavior; shard : int option }
  | Attack_pre_prepare of {
      node : int;
      mute_p : float;
      delay_us : int;
      for_us : int;
      shard : int option;
    }

type event = { at_us : int; action : action }

type t = event list

let behavior_name = function
  | B_honest -> "honest"
  | B_mute -> "mute"
  | B_lie -> "lie"
  | B_equivocate -> "equivocate"

let behavior_of_name = function
  | "honest" -> Some B_honest
  | "mute" -> Some B_mute
  | "lie" -> Some B_lie
  | "equivocate" -> Some B_equivocate
  | _ -> None

(* --- parsing --------------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* "500ms" -> 500_000; suffix is mandatory so a bare number can never be
   misread as the wrong unit. *)
let duration_us s =
  let n = String.length s in
  let digits = ref 0 in
  while !digits < n && s.[!digits] >= '0' && s.[!digits] <= '9' do
    incr digits
  done;
  if !digits = 0 then bad "expected a duration, got %S" s;
  let value =
    match int_of_string_opt (String.sub s 0 !digits) with
    | Some v -> v
    | None -> bad "duration out of range: %S" s
  in
  match String.sub s !digits (n - !digits) with
  | "us" -> value
  | "ms" -> value * 1_000
  | "s" -> value * 1_000_000
  | u -> bad "unknown time unit %S in %S (use us/ms/s)" u s

let node_id s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | Some _ | None -> bad "expected a node id, got %S" s

(* A link endpoint: a node id or the '*' wildcard (encoded as -1). *)
let endpoint s = if String.equal s "*" then -1 else node_id s

(* "1->2", "*->3" *)
let link s =
  match String.index_opt s '-' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '>'
         && i > 0
         && i + 2 < String.length s ->
    (endpoint (String.sub s 0 i), endpoint (String.sub s (i + 2) (String.length s - i - 2)))
  | _ -> bad "expected a link SRC->DST, got %S" s

(* "key=value" with a specific expected key. *)
let keyed key s =
  match String.index_opt s '=' with
  | Some i when String.equal (String.sub s 0 i) key ->
    String.sub s (i + 1) (String.length s - i - 1)
  | _ -> bad "expected %s=..., got %S" key s

(* Optional "shard=K" qualifier at the head of [toks]; omitted means the
   fault targets the node across every shard. *)
let shard_qualifier toks =
  match toks with
  | s :: rest when String.length s > 6 && String.equal (String.sub s 0 6) "shard=" ->
    (Some (node_id (keyed "shard" s)), rest)
  | _ -> (None, toks)

let probability s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> p
  | Some _ | None -> bad "expected a probability in [0,1], got %S" s

let window = function
  | [ "for"; d ] -> duration_us d
  | toks -> bad "expected 'for DURATION', got %S" (String.concat " " toks)

let split_groups toks =
  let rec go acc = function
    | [] -> bad "partition needs a '/' separating the two groups"
    | "/" :: rest -> (List.rev acc, rest)
    | x :: rest -> go (node_id x :: acc) rest
  in
  let a, b = go [] toks in
  if a = [] || b = [] then bad "partition groups must be non-empty";
  (a, List.map node_id b)

let action_of_tokens = function
  | [ "crash"; n ] -> Crash (node_id n)
  | [ "reboot"; n ] -> Reboot (node_id n)
  | [ "promote"; n ] -> Promote (node_id n)
  | [ "crash-standby"; n ] -> Crash_standby (node_id n)
  | "partition" :: groups ->
    let a, b = split_groups groups in
    Partition (a, b)
  | [ "heal" ] -> Heal
  | "delay" :: l :: extra :: rest ->
    let src, dst = link l in
    Delay_link { src; dst; extra_us = duration_us (keyed "extra" extra); for_us = window rest }
  | "drop" :: l :: p :: rest ->
    let src, dst = link l in
    Drop_link { src; dst; p = probability (keyed "p" p); for_us = window rest }
  | "corrupt" :: l :: p :: rest ->
    let src, dst = link l in
    Corrupt_link { src; dst; p = probability (keyed "p" p); for_us = window rest }
  | "behavior" :: n :: b :: rest -> (
    let shard, rest = shard_qualifier rest in
    match (behavior_of_name b, rest) with
    | Some behavior, [] -> Set_behavior { node = node_id n; behavior; shard }
    | Some _, toks -> bad "unexpected tokens after behavior: %S" (String.concat " " toks)
    | None, _ -> bad "unknown behavior %S (honest/mute/lie/equivocate)" b)
  | "attack-preprepare" :: n :: mute :: delay :: rest ->
    let shard, rest = shard_qualifier rest in
    Attack_pre_prepare
      {
        node = node_id n;
        mute_p = probability (keyed "mute" mute);
        delay_us = duration_us (keyed "delay" delay);
        for_us = window rest;
        shard;
      }
  | toks -> bad "unknown action %S" (String.concat " " toks)

let event_of_line line =
  match String.split_on_char ' ' line |> List.filter (fun s -> not (String.equal s "")) with
  | [] -> None
  | [ "at"; time ] -> bad "line %S has a time but no action" time
  | "at" :: time :: action -> Some { at_us = duration_us time; action = action_of_tokens action }
  | tok :: _ -> bad "expected 'at TIME ACTION', got %S..." tok

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go ln acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = strip_comment line |> String.trim in
      match event_of_line line with
      | None -> go (ln + 1) acc rest
      | Some ev -> go (ln + 1) (ev :: acc) rest
      | exception Bad msg -> Error (Printf.sprintf "line %d: %s" ln msg))
  in
  go 1 [] lines

(* --- printing -------------------------------------------------------------- *)

let endpoint_str e = if e = -1 then "*" else string_of_int e

let shard_str = function Some k -> Printf.sprintf " shard=%d" k | None -> ""

let ints xs = String.concat " " (List.map string_of_int xs)

let action_to_string = function
  | Crash n -> Printf.sprintf "crash %d" n
  | Reboot n -> Printf.sprintf "reboot %d" n
  | Promote n -> Printf.sprintf "promote %d" n
  | Crash_standby n -> Printf.sprintf "crash-standby %d" n
  | Partition (a, b) -> Printf.sprintf "partition %s / %s" (ints a) (ints b)
  | Heal -> "heal"
  | Delay_link { src; dst; extra_us; for_us } ->
    Printf.sprintf "delay %s->%s extra=%dus for %dus" (endpoint_str src) (endpoint_str dst)
      extra_us for_us
  | Drop_link { src; dst; p; for_us } ->
    Printf.sprintf "drop %s->%s p=%g for %dus" (endpoint_str src) (endpoint_str dst) p for_us
  | Corrupt_link { src; dst; p; for_us } ->
    Printf.sprintf "corrupt %s->%s p=%g for %dus" (endpoint_str src) (endpoint_str dst) p
      for_us
  | Set_behavior { node; behavior; shard } ->
    Printf.sprintf "behavior %d %s%s" node (behavior_name behavior) (shard_str shard)
  | Attack_pre_prepare { node; mute_p; delay_us; for_us; shard } ->
    Printf.sprintf "attack-preprepare %d mute=%g delay=%dus%s for %dus" node mute_p delay_us
      (shard_str shard) for_us

let event_to_string ev = Printf.sprintf "at %dus %s" ev.at_us (action_to_string ev.action)

let to_string plan = String.concat "" (List.map (fun ev -> event_to_string ev ^ "\n") plan)
