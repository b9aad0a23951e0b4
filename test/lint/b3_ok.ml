(* Taint-backend fixture: the b3_bad.ml sinks with validation in front —
   zero findings. *)

module Xdr = struct
  let read_u32 (_d : string) = 0
end

module Partition_tree = struct
  let levels (_t : unit) = 4

  let children (_t : unit) ~level:(_ : int) ~index:(_ : int) = [||]
end

type t = { mutable view : int }

type 'timer net = { set_timer : after_us:int -> 'timer -> int }

(* Watermark adoption behind a two-sided window check. *)
let adopt t d =
  let v = Xdr.read_u32 d in
  if v >= 0 && v < 1000 then t.view <- v

(* Timer durations come from configuration, never the wire. *)
let arm net _d = net.set_timer ~after_us:5000 ()

(* Coordinate clamped against the (clean, registry-listed) tree shape. *)
let fetch pt d =
  let level = Xdr.read_u32 d in
  if level >= 0 && level < Partition_tree.levels pt then
    ignore (Partition_tree.children pt ~level ~index:0)
