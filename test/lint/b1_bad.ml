(* Taint-pass fixture: every B1 shape the pass must flag.  The local
   [Xdr] fake matches the registry's [(source (module Xdr) (prefix
   read_))] entry by innermost module name, so its call results are
   wire-tainted exactly like the real decoder's. *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

(* B1: wire length straight into an allocation. *)
let alloc d = Bytes.create (Xdr.read_u32 d)

(* B1: wire offset into a byte range. *)
let slice buf d = String.sub buf (Xdr.read_u32 d) 8

(* B1: wire count as an ascending for-loop bound. *)
let burn d =
  for i = 1 to Xdr.read_u32 d do
    ignore i
  done

(* B1 through a local helper: the conditional sink recorded on [pad]'s
   parameter is instantiated by [alloc2]'s wire argument, so the finding
   lands on the allocation inside [pad]. *)
let pad n = Bytes.make n ' '

let alloc2 d = pad (Xdr.read_u32 d)

(* B1 through a named function handed to a higher-order function: [fill]
   runs over the wire length that [run] passes it, as an encoder handed to
   [Xdr.encode] runs over the value encoded. *)
let fill n = Bytes.make n '.'

let run f x = f x

let alloc3 d = run fill (Xdr.read_u32 d)
