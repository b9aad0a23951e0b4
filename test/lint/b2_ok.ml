(* Taint-pass fixture: mutations correctly dominated by verification,
   plus a mutate-only function (no verification anywhere, so not a
   MAC-carrying handler path) — zero findings. *)

module Message = struct
  let verify (_env : string) = true
end

type t = { mutable view : int; mutable ticks : int }

(* Mutation only in the verified branch. *)
let handle t env v = if Message.verify env then t.view <- v

(* Verification sequenced strictly before the mutation. *)
let handle2 t env v =
  let ok = Message.verify env in
  if ok then begin
    t.view <- v;
    t.ticks <- t.ticks + 1
  end

(* No verifier on any path: a local bookkeeping function, not a handler. *)
let tick t = t.ticks <- t.ticks + 1

(* Hashing the received bytes before the check writes only SHA-256's own
   scratch context, which is not replica state (the registry's benign
   [Sha256] entry); the mutation still follows the verifier. *)
module Sha256 = struct
  let scratch = Bytes.create 32

  let digest s =
    Bytes.blit_string s 0 scratch 0 (min 32 (String.length s));
    Bytes.to_string scratch
end

module Digest_t = struct
  let of_string s = Sha256.digest s
end

module Auth = struct
  let check (_ : string) = true
end

let handle3 t env v =
  let d = Digest_t.of_string env in
  if Auth.check d then t.view <- v
