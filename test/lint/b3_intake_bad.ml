(* Taint-pass fixture: a wire client id indexes the client table, both
   directly and through a helper that takes the whole request. *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

module Intake = struct
  let find (slots : int array) c = slots.(c)
end

type request = { client : int }

(* B3: wire client id straight into the slot lookup. *)
let lookup slots d = Intake.find slots (Xdr.read_u32 d)

let pending slots (r : request) = Intake.find slots r.client > 0

(* B3 at the helper's lookup: a decoded request reaches it unchecked. *)
let admit slots d = pending slots { client = Xdr.read_u32 d }
