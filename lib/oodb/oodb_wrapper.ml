(** Conformance wrapper for the object database.

    The common abstract specification mirrors the file service's structure:
    a fixed array of (generation, object) slots, deterministic slot
    allocation (lowest free index), canonical XDR encoding with fields and
    references sorted by name, and version stamps taken from the agreed
    non-deterministic values instead of the engine's local clock.

    The conformance rep maps slots to the engine's random internal tokens
    (and back), exactly as the NFS wrapper maps oids to file handles. *)

module Xdr = Base_codec.Xdr
module Service = Base_core.Service
open Oodb_proto

type slot = {
  mutable gen : int;
  mutable token : string option;  (* internal oid; None = free *)
  mutable stamp : int64;  (* abstract version stamp *)
}

type t = {
  db : Oodb.t;
  slots : slot array;
  token2slot : (string, int) Hashtbl.t;
}

let resolve t (o : aoid) =
  if o.index < 0 || o.index >= Array.length t.slots then None
  else begin
    let s = t.slots.(o.index) in
    match s.token with
    | Some token when s.gen = o.gen -> Some (o.index, token)
    | Some _ | None -> None
  end

let find_free t =
  let rec loop i =
    if i >= Array.length t.slots then None
    else if t.slots.(i).token = None then Some i
    else loop (i + 1)
  in
  loop 1

let aoid_of t i = { index = i; gen = t.slots.(i).gen }

(* Canonical field order of the abstract encoding: by field name, then by
   value/target so duplicate names (which the engine never produces) would
   still encode identically on every replica. *)
let compare_field (f1, v1) (f2, v2) =
  match String.compare f1 f2 with 0 -> String.compare v1 v2 | c -> c

let compare_ref (f1, (o1 : aoid)) (f2, (o2 : aoid)) =
  match String.compare f1 f2 with
  | 0 -> ( match Int.compare o1.index o2.index with 0 -> Int.compare o1.gen o2.gen | c -> c)
  | c -> c

(* Abstract view of one slot: fields sorted, refs sorted and translated to
   abstract oids. *)
let abstract_value t i =
  let token = Option.get t.slots.(i).token in
  match Oodb.get t.db token with
  | None -> failwith "oodb wrapper: token vanished"
  | Some r ->
    let fields = List.sort compare_field r.Oodb.fields in
    let refs =
      r.Oodb.refs
      |> List.filter_map (fun (f, target) ->
             match Hashtbl.find_opt t.token2slot target with
             | Some ti
               when Option.equal String.equal t.slots.(ti).token (Some target) ->
               Some (f, aoid_of t ti)
             | Some _ | None -> None (* dangling: target was deleted *))
      |> List.sort compare_ref
    in
    (fields, refs)

let encode_slot t i =
  let e = Xdr.encoder () in
  let s = t.slots.(i) in
  Xdr.u32 e s.gen;
  (match s.token with
  | None -> Xdr.u32 e 0
  | Some _ ->
    Xdr.u32 e 1;
    let fields, refs = abstract_value t i in
    Xdr.list e
      (fun e (f, v) ->
        Xdr.str e f;
        Xdr.str e v)
      fields;
    Xdr.list e
      (fun e (f, o) ->
        Xdr.str e f;
        enc_aoid e o)
      refs;
    Xdr.i64 e s.stamp);
  Xdr.contents e

type decoded_slot = {
  d_gen : int;
  d_value : ((string * string) list * (string * aoid) list * int64) option;
}

let decode_slot data =
  let d = Xdr.decoder data in
  let d_gen = Xdr.read_u32 d in
  let d_value =
    match Xdr.read_u32 d with
    | 0 -> None
    | 1 ->
      let fields =
        Xdr.read_list d (fun d ->
            let f = Xdr.read_str d in
            (f, Xdr.read_str d))
      in
      let refs =
        Xdr.read_list d (fun d ->
            let f = Xdr.read_str d in
            (f, dec_aoid d))
      in
      let stamp = Xdr.read_i64 d in
      Some (fields, refs, stamp)
    | n -> raise (Xdr.Decode_error (Printf.sprintf "bad slot tag %d" n))
  in
  Xdr.expect_end d;
  { d_gen; d_value }

let execute_call t ~modify ~ts (call : call) : reply =
  match call with
  | New -> (
    match find_free t with
    | None -> R_full
    | Some i ->
      modify i;
      let token = Oodb.alloc t.db in
      let s = t.slots.(i) in
      s.gen <- s.gen + 1;
      s.token <- Some token;
      s.stamp <- ts;
      Hashtbl.replace t.token2slot token i;
      R_oid (aoid_of t i))
  | Get o -> (
    match resolve t o with
    | None -> R_stale
    | Some (i, _) ->
      let fields, refs = abstract_value t i in
      R_value { fields; refs; stamp = t.slots.(i).stamp })
  | Set_field (o, f, v) -> (
    match resolve t o with
    | None -> R_stale
    | Some (i, token) ->
      modify i;
      ignore (Oodb.set_field t.db token f v);
      t.slots.(i).stamp <- ts;
      R_unit)
  | Get_field (o, f) -> (
    match resolve t o with
    | None -> R_stale
    | Some (_, token) -> R_field (Oodb.get_field t.db token f))
  | Set_ref (o, f, target) -> (
    match (resolve t o, resolve t target) with
    | None, _ | _, None -> R_stale
    | Some (i, token), Some (_, target_token) ->
      modify i;
      ignore (Oodb.set_ref t.db token f target_token);
      t.slots.(i).stamp <- ts;
      R_unit)
  | Clear_ref (o, f) -> (
    match resolve t o with
    | None -> R_stale
    | Some (i, token) ->
      modify i;
      ignore (Oodb.clear_ref t.db token f);
      t.slots.(i).stamp <- ts;
      R_unit)
  | Delete o -> (
    match resolve t o with
    | None -> R_stale
    | Some (i, token) ->
      if i = 0 then R_stale (* the root object is permanent *)
      else begin
        modify i;
        (* Objects referencing the victim change abstractly too (their
           dangling refs disappear from the abstract view). *)
        Array.iteri
          (fun j s ->
            match s.token with
            | Some holder -> (
              match Oodb.get t.db holder with
              | Some r when List.exists (fun (_, tgt) -> String.equal tgt token) r.Oodb.refs ->
                modify j;
                r.Oodb.refs <-
                  List.filter (fun (_, tgt) -> not (String.equal tgt token)) r.Oodb.refs
              | Some _ | None -> ())
            | None -> ())
          t.slots;
        Oodb.delete t.db token;
        Hashtbl.remove t.token2slot token;
        t.slots.(i).token <- None;
        R_unit
      end)
  | Count -> R_count (Oodb.count t.db)

let put_objs t objs =
  let decoded = List.map (fun (i, data) -> (i, decode_slot data)) objs in
  (* Drop slots that are freed or reassigned; free slots still adopt the
     batch's generation number (it is part of the abstract state). *)
  List.iter
    (fun (i, ds) ->
      let s = t.slots.(i) in
      (match s.token with
      | Some token when ds.d_value = None || ds.d_gen <> s.gen ->
        Oodb.delete t.db token;
        Hashtbl.remove t.token2slot token;
        s.token <- None
      | Some _ | None -> ());
      if ds.d_value = None then s.gen <- ds.d_gen)
    decoded;
  (* Materialise missing objects. *)
  List.iter
    (fun (i, ds) ->
      match ds.d_value with
      | Some _ when t.slots.(i).token = None ->
        let token = Oodb.alloc t.db in
        let s = t.slots.(i) in
        s.gen <- ds.d_gen;
        s.token <- Some token;
        Hashtbl.replace t.token2slot token i
      | Some _ | None -> ())
    decoded;
  (* Install values; references may point at slots created above or at
     slots outside the batch. *)
  List.iter
    (fun (i, ds) ->
      match ds.d_value with
      | None -> ()
      | Some (fields, refs, stamp) -> (
        let s = t.slots.(i) in
        s.gen <- ds.d_gen;
        s.stamp <- stamp;
        let token = Option.get s.token in
        match Oodb.get t.db token with
        | None -> failwith "oodb put_objs: token vanished"
        | Some r ->
          r.Oodb.fields <- fields;
          r.Oodb.refs <-
            List.filter_map
              (fun (f, (o : aoid)) ->
                match t.slots.(o.index).token with
                | Some target when t.slots.(o.index).gen = o.gen -> Some (f, target)
                | Some _ | None -> None)
              refs))
    decoded

let make ?(max_skew_us = 5_000_000L) ~seed ~now ~n_objects () =
  let db = Oodb.create ~seed ~now in
  let t =
    {
      db;
      slots = Array.init n_objects (fun _ -> { gen = 0; token = None; stamp = 0L });
      token2slot = Hashtbl.create 64;
    }
  in
  (* Slot 0 is the root object. *)
  t.slots.(0).token <- Some (Oodb.root db);
  Hashtbl.replace t.token2slot (Oodb.root db) 0;
  let execute ~client:_ ~operation ~nondet ~read_only:_ ~modify =
    let ts = Service.clock_of_nondet nondet in
    let reply =
      match decode_call operation with
      | call -> execute_call t ~modify ~ts call
      | exception Xdr.Decode_error _ -> R_stale
    in
    encode_reply reply
  in
  {
    Service.name = "oodb";
    n_objects;
    execute;
    get_obj = (fun i -> encode_slot t i);
    put_objs = (fun objs -> put_objs t objs);
    restart = (fun () -> () (* tokens are stable within this engine *));
    propose_nondet = (fun ~clock_us ~operation:_ -> Service.nondet_of_clock clock_us);
    check_nondet =
      (fun ~clock_us ~operation:_ ~nondet ->
        Service.default_check_nondet ~max_skew_us ~clock_us ~nondet);
    (* Slots are reached through concrete tokens the client holds, not named
       statically in the call, so the OODB declares no routing footprint and
       always runs unsharded. *)
    oids_of_op = Service.no_footprint;
  }
