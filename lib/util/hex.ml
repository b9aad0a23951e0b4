let hex_chars = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_chars.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_chars.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

let short s =
  let h = encode s in
  if String.length h <= 8 then h else String.sub h 0 8
