(* Fixture: structural comparison on *variables* of structured type.
   Every operand here is a bare identifier; D1 flags each site from the
   instantiation type. *)

type entry = { key : int; value : string }

(* D1-typed: (=) at a record type. *)
let same_entry (a : entry) (b : entry) = a = b

(* D1-typed: (<>) at a list type. *)
let differ (xs : string list) (ys : string list) = xs <> ys

(* D1-typed: polymorphic max at a record type. *)
let newest (a : entry) (b : entry) = max a b
