(* Fixture: fresh XDR encoders outside the codec trip A1, however the path
   to [encoder] is spelled; the shared scratch encoder does not. *)
open Base_codec

let encode_u32 v =
  let e = Xdr.encoder () in
  Xdr.u32 e v;
  Xdr.contents e

let fresh () = Base_codec.Xdr.encoder ()

let encode_ok v = Xdr.encode Xdr.u32 v

(* Through a module alias. *)
module X = Base_codec.Xdr

let via_alias () = X.encoder ()

(* Through a local open. *)
let via_open () = Base_codec.Xdr.(encoder ())
