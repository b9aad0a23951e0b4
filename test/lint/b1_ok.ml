(* Taint-pass fixture: the same B1 shapes as b1_bad.ml with a
   dominating sanitizer each — must produce zero findings. *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

let max_len = 4096

(* Two-sided comparison guard: the else-branch of [n < 0 || n > cap]
   discharges both taint directions. *)
let alloc d =
  let n = Xdr.read_u32 d in
  if n < 0 || n > max_len then None else Some (Bytes.create n)

(* Masking with a clean operand bounds both directions. *)
let alloc2 d = Bytes.create (Xdr.read_u32 d land 0xff)

(* A measured length of materialized data is clean. *)
let copy buf = String.sub buf 0 (String.length buf)

(* [min] against a clean cap discharges the upper bound, which is the
   direction an ascending loop's upper limit needs. *)
let burn d =
  for i = 1 to min (Xdr.read_u32 d) 16 do
    ignore i
  done
