(* Documented blind spots of the taint pass, one function each, pinned
   by a test asserting this unit produces ZERO findings.  Every shape here
   is genuinely dangerous at runtime; the fixture exists so a future pass
   improvement that closes one shows up as a test diff (flip the
   expectation), and so doc/lint.md's blind-spot table stays honest.

   See doc/lint.md, "What the taint pass does not see". *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

module Message = struct
  let verify (_env : string) = true
end

type t = { mutable view : int }

(* 1. Heap laundering: a wire value round-tripped through a hash table
   comes back clean, because container reads are treated as locally
   produced. *)
let stash : (int, int) Hashtbl.t = Hashtbl.create 8

let heap_launder d =
  Hashtbl.replace stash 0 (Xdr.read_u32 d);
  match Hashtbl.find_opt stash 0 with
  | Some n -> Bytes.create n
  | None -> Bytes.empty

(* 2. Implicit flow: the attacker steers the branch, but only data
   dependencies are tracked, so the branch result is clean. *)
let implicit d = Bytes.create (if Xdr.read_u32 d > 0 then 1024 else 0)

(* 3. Recursion depth: only for/while bounds are B1 loop sinks; a
   wire-controlled recursion count is not seen. *)
let rec spin n = if n > 0 then spin (n - 1)

let recurse d = spin (Xdr.read_u32 d)

(* 4. Trusted-parameter bounds: a comparison against an ordinary
   (unregistered) parameter sanitizes, even though some caller could
   itself pass a wire value for [cap].  Registered source params carry
   wire bits and never sanitize; everything else is trusted. *)
let clamp cap d =
  let n = Xdr.read_u32 d in
  if n < 0 || n > cap then Bytes.empty else Bytes.create n

(* 5. Deferred callbacks: lambda bodies are excluded from the B2 event
   order (they run later, not here), so a mutation smuggled into a
   closure escapes verify-before-mutate ordering. *)
let defer f = f ()

let deferred_mutate t env =
  defer (fun () -> t.view <- 0);
  ignore (Message.verify env)
