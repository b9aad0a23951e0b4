type wrapper = {
  name : string;
  n_objects : int;
  execute :
    client:int ->
    operation:string ->
    nondet:string ->
    read_only:bool ->
    modify:(int -> unit) ->
    string;
  get_obj : int -> string;
  put_objs : (int * string) list -> unit;
  restart : unit -> unit;
  propose_nondet : clock_us:int64 -> operation:string -> string;
  check_nondet : clock_us:int64 -> operation:string -> nondet:string -> bool;
  oids_of_op : operation:string -> int list;
}

(* The footprint every pre-sharding service declares: "no routing
   information" — the runtime maps it to shard 0, which owns the whole
   object space in unsharded configs. *)
let no_footprint ~operation:_ = []

(* A leaf hashes the XDR encoding of (u32 i, opaque data): an 8-byte header
   (index, length), the data, and zero padding to a 4-byte boundary.  The
   three parts go to SHA-256 where they lie, so digesting an object copies
   none of it and allocates only the digest (one context: single-domain,
   like the SHA-256 scratch). *)
let leaf_ctx = Base_crypto.Sha256.init ()

let leaf_header = Bytes.create 8

let zero_pads = [| ""; "\000"; "\000\000"; "\000\000\000" |]

let object_digest i data =
  let n = String.length data in
  Bytes.set_int32_be leaf_header 0 (Int32.of_int i);
  Bytes.set_int32_be leaf_header 4 (Int32.of_int n);
  Base_crypto.Sha256.reset leaf_ctx;
  Base_crypto.Sha256.update_bytes leaf_ctx leaf_header ~pos:0 ~len:8;
  Base_crypto.Sha256.update leaf_ctx data;
  Base_crypto.Sha256.update leaf_ctx zero_pads.(-n land 3);
  Base_crypto.Digest_t.of_raw (Base_crypto.Sha256.finalize leaf_ctx)

let nondet_of_clock clock_us = Base_codec.Xdr.encode Base_codec.Xdr.i64 clock_us

let clock_of_nondet s =
  if String.length s = 0 then 0L else Base_codec.Xdr.read_i64 (Base_codec.Xdr.decoder s)

let default_check_nondet ~max_skew_us ~clock_us ~nondet =
  match clock_of_nondet nondet with
  | proposed ->
    let delta = Int64.abs (Int64.sub proposed clock_us) in
    Int64.compare delta max_skew_us <= 0
  | exception Base_codec.Xdr.Decode_error _ -> false
