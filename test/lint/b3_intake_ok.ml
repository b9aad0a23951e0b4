(* Taint-pass fixture: the b3_intake_bad.ml lookups behind the client
   range predicate — zero findings. *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

module Intake = struct
  let is_client (_config : unit) c = c >= 4 && c < 8

  let find (slots : int array) c = slots.(c)
end

type request = { client : int }

let lookup slots d =
  let c = Xdr.read_u32 d in
  if Intake.is_client () c then ignore (Intake.find slots c)

let pending slots (r : request) = Intake.find slots r.client > 0

let admit slots d =
  let r = { client = Xdr.read_u32 d } in
  if Intake.is_client () r.client then ignore (pending slots r)
