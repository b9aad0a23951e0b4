(** Wire protocol of the replicated object database. *)

module Xdr = Base_codec.Xdr

(** Abstract object id: slot index + generation, as in the file service. *)
type aoid = { index : int; gen : int }

let root_aoid = { index = 0; gen = 0 }

type call =
  | New  (** allocate a fresh object; returns its aoid *)
  | Get of aoid  (** full object value *)
  | Set_field of aoid * string * string
  | Get_field of aoid * string
  | Set_ref of aoid * string * aoid
  | Clear_ref of aoid * string
  | Delete of aoid
  | Count

type reply =
  | R_oid of aoid
  | R_value of {
      fields : (string * string) list;  (** sorted *)
      refs : (string * aoid) list;  (** sorted *)
      stamp : int64;
    }
  | R_field of string option
  | R_unit
  | R_count of int
  | R_stale
  | R_full

let read_only_call = function
  | Get _ | Get_field _ | Count -> true
  | New | Set_field _ | Set_ref _ | Clear_ref _ | Delete _ -> false

let enc_aoid e (o : aoid) =
  Xdr.u32 e o.index;
  Xdr.u32 e o.gen

let dec_aoid d =
  let index = Xdr.read_u32 d in
  let gen = Xdr.read_u32 d in
  { index; gen }

let encode_call c =
  Xdr.encode
    (fun e -> function
      | New -> Xdr.u32 e 0
      | Get o ->
        Xdr.u32 e 1;
        enc_aoid e o
      | Set_field (o, f, v) ->
        Xdr.u32 e 2;
        enc_aoid e o;
        Xdr.str e f;
        Xdr.str e v
      | Get_field (o, f) ->
        Xdr.u32 e 3;
        enc_aoid e o;
        Xdr.str e f
      | Set_ref (o, f, target) ->
        Xdr.u32 e 4;
        enc_aoid e o;
        Xdr.str e f;
        enc_aoid e target
      | Clear_ref (o, f) ->
        Xdr.u32 e 5;
        enc_aoid e o;
        Xdr.str e f
      | Delete o ->
        Xdr.u32 e 6;
        enc_aoid e o
      | Count -> Xdr.u32 e 7)
    c

let decode_call s =
  Xdr.decode
    (fun d ->
      match Xdr.read_u32 d with
      | 0 -> New
      | 1 -> Get (dec_aoid d)
      | 2 ->
        let o = dec_aoid d in
        let f = Xdr.read_str d in
        Set_field (o, f, Xdr.read_str d)
      | 3 ->
        let o = dec_aoid d in
        Get_field (o, Xdr.read_str d)
      | 4 ->
        let o = dec_aoid d in
        let f = Xdr.read_str d in
        Set_ref (o, f, dec_aoid d)
      | 5 ->
        let o = dec_aoid d in
        Clear_ref (o, Xdr.read_str d)
      | 6 -> Delete (dec_aoid d)
      | 7 -> Count
      | n -> raise (Xdr.Decode_error (Printf.sprintf "bad oodb call %d" n)))
    s

let encode_reply r =
  Xdr.encode
    (fun e -> function
      | R_oid o ->
        Xdr.u32 e 0;
        enc_aoid e o
      | R_value { fields; refs; stamp } ->
        Xdr.u32 e 1;
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
        Xdr.i64 e stamp
      | R_field v -> (
        Xdr.u32 e 2;
        match v with
        | None -> Xdr.u32 e 0
        | Some s ->
          Xdr.u32 e 1;
          Xdr.str e s)
      | R_unit -> Xdr.u32 e 3
      | R_count n ->
        Xdr.u32 e 4;
        Xdr.u32 e n
      | R_stale -> Xdr.u32 e 5
      | R_full -> Xdr.u32 e 6)
    r

let decode_reply s =
  Xdr.decode
    (fun d ->
      match Xdr.read_u32 d with
      | 0 -> R_oid (dec_aoid d)
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
        R_value { fields; refs; stamp = Xdr.read_i64 d }
      | 2 -> (
        match Xdr.read_u32 d with
        | 0 -> R_field None
        | 1 -> R_field (Some (Xdr.read_str d))
        | n -> raise (Xdr.Decode_error (Printf.sprintf "bad field option %d" n)))
      | 3 -> R_unit
      | 4 -> R_count (Xdr.read_u32 d)
      | 5 -> R_stale
      | 6 -> R_full
      | n -> raise (Xdr.Decode_error (Printf.sprintf "bad oodb reply %d" n)))
    s
