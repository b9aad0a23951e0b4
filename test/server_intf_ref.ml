(* The pre-overhaul file-content helpers of [Base_fs.Server_intf], verbatim:
   a whole-file read copies the stored string, a write builds its result
   from [String.sub] and two concatenations, and a resize to the same size
   copies.  The oracle for the differential suite (test_fs_contents.ml):
   the one-allocation helpers must return the same bytes and the same
   [Efbig] on every input. *)

let string_splice base ~off ~data ~max_size =
  if off + String.length data > max_size then Error Base_nfs.Nfs_types.Efbig
  else begin
    let len = String.length base in
    let base = if off > len then base ^ String.make (off - len) '\000' else base in
    let head = String.sub base 0 off in
    let tail_start = off + String.length data in
    let tail =
      if tail_start < String.length base then
        String.sub base tail_start (String.length base - tail_start)
      else ""
    in
    Ok (head ^ data ^ tail)
  end

let string_resize base size =
  if size <= String.length base then String.sub base 0 size
  else base ^ String.make (size - String.length base) '\000'

let substr base ~off ~count =
  let len = String.length base in
  let off = min off len in
  let count = min count (len - off) in
  String.sub base off count
