(* Fixture: two fresh XDR encoders outside the codec trip A1; the shared
   scratch encoder does not. *)
let encode_u32 v =
  let e = Xdr.encoder () in
  Xdr.u32 e v;
  Xdr.contents e

let fresh () = Base_codec.Xdr.encoder ()

let encode_ok v = Xdr.encode Xdr.u32 v
