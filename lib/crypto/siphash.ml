(* The kernel is siphash_stubs.c; see the interface. *)

external mac :
  k0:(int64[@unboxed]) -> k1:(int64[@unboxed]) -> string -> suffix:(int[@untagged]) ->
  (int64[@unboxed]) = "base_siphash24_byte" "base_siphash24"
[@@noalloc]
