(* Taint-pass fixture: every B3 sink family the pass must flag —
   a registered setfield (protocol watermark), a record-field call with a
   labeled argument (timer duration), and a registered function sink
   (partition-tree coordinate). *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

module Partition_tree = struct
  let children (_t : unit) ~level:(_ : int) ~index:(_ : int) = [||]
end

type t = { mutable view : int }

type 'timer net = { set_timer : after_us:int -> 'timer -> int }

(* B3: wire value assigned to a protocol watermark field. *)
let adopt t d = t.view <- Xdr.read_u32 d

(* B3: wire duration into a timer through a record-field call. *)
let arm net d = net.set_timer ~after_us:(Xdr.read_u32 d) ()

(* B3: wire partition-tree coordinate. *)
let fetch pt d = Partition_tree.children pt ~level:(Xdr.read_u32 d) ~index:0
