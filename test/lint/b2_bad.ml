(* Taint-pass fixture: B2 (verify-before-mutate).  The local [Message]
   fake matches the registry's [(verifier (module Message) (name
   verify))], so calling it marks the path verified; any state mutation
   sequenced before it on the same path is a finding. *)

module Message = struct
  let verify (_env : string) = true
end

type t = { mutable view : int; mutable log : int list }

(* B2: the watermark is assigned before the MAC check on this path. *)
let handle t env v =
  t.view <- v;
  if Message.verify env then () else ()

(* B2: mutation via a stdlib primitive before the check. *)
let enqueue t env v =
  t.log <- v :: t.log;
  ignore (Message.verify env)
