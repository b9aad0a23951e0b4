let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key < block_size then
    key ^ String.make (block_size - String.length key) '\000'
  else key

let xor_pad key pad =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor Char.code pad))

let mac_list ~key msgs =
  let key = normalize_key key in
  let ipad = xor_pad key '\x36' in
  let opad = xor_pad key '\x5c' in
  let inner = Sha256.digest_list (ipad :: msgs) in
  Sha256.digest_list [ opad; inner ]

let mac ~key msg = mac_list ~key [ msg ]
