(* Fixture: the sort lives in a helper defined in a *different*
   structure item (and its name deliberately avoids "sort"); D3 resolves
   [canonicalize]'s identity across items and accepts the fold below. *)

let canonicalize pairs = List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs

let bindings tbl = canonicalize (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
