(* SipHash-2-4 known answers, generated by gen_siphash_kat.sh with OpenSSL;
   do not edit.  Each entry is [(n, suffix, expected lowercase hex tag)]:
   the message is [message n], whose byte i is i mod 256, with [suffix]
   appended when present, under the key 00 01 .. 0f. *)

let message n = String.init n (fun i -> Char.chr (i land 255))

(* The tag under that key, as the lowercase hex of its 8 wire bytes. *)
let hex ?suffix msg =
  let key = String.init 16 Char.chr and tag = Bytes.create 8 in
  let suffix = match suffix with Some c -> Char.code c | None -> -1 in
  Bytes.set_int64_le tag 0
    (Base_crypto.Siphash.mac ~k0:(String.get_int64_le key 0) ~k1:(String.get_int64_le key 8) msg
       ~suffix);
  Base_util.Hex.encode (Bytes.to_string tag)

let vectors =
  [
    (0, None, "310e0edd47db6f72");
    (1, None, "fd67dc93c539f874");
    (2, None, "5a4fa9d909806c0d");
    (3, None, "2d7efbd796666785");
    (4, None, "b7877127e09427cf");
    (5, None, "8da699cd64557618");
    (6, None, "cee3fe586e46c9cb");
    (7, None, "37d1018bf50002ab");
    (8, None, "6224939a79f5f593");
    (9, None, "b0e4a90bdf82009e");
    (10, None, "f3b9dd94c5bb5d7a");
    (11, None, "a7ad6b22462fb3f4");
    (12, None, "fbe50e86bc8f1e75");
    (13, None, "903d84c02756ea14");
    (14, None, "eef27a8e90ca23f7");
    (15, None, "e545be4961ca29a1");
    (16, None, "db9bc2577fcc2a3f");
    (17, None, "9447be2cf5e99a69");
    (18, None, "9cd38d96f0b3c14b");
    (19, None, "bd6179a71dc96dbb");
    (20, None, "98eea21af25cd6be");
    (21, None, "c7673b2eb0cbf2d0");
    (22, None, "883ea3e395675393");
    (23, None, "c8ce5ccd8c030ca8");
    (24, None, "94af49f6c650adb8");
    (25, None, "eab8858ade92e1bc");
    (26, None, "f315bb5bb835d817");
    (27, None, "adcf6b0763612e2f");
    (28, None, "a5c91da7acaa4dde");
    (29, None, "716595876650a2a6");
    (30, None, "28ef495c53a387ad");
    (31, None, "42c341d8fa92d832");
    (32, None, "ce7cf2722f512771");
    (33, None, "e37859f94623f3a7");
    (34, None, "381205bb1ab0e012");
    (35, None, "ae97a10fd434e015");
    (36, None, "b4a31508beff4d31");
    (37, None, "81396229f0907902");
    (38, None, "4d0cf49ee5d4dcca");
    (39, None, "5c73336a76d8bf9a");
    (40, None, "d0a704536ba93e0e");
    (41, None, "925958fcd6420cad");
    (42, None, "a915c29bc8067318");
    (43, None, "952b79f3bc0aa6d4");
    (44, None, "f21df2e41d4535f9");
    (45, None, "87577519048f53a9");
    (46, None, "10a56cf5dfcd9adb");
    (47, None, "eb75095ccd986cd0");
    (48, None, "51a9cb9ecba312e6");
    (49, None, "96afadfc2ce666c7");
    (50, None, "72fe52975a4364ee");
    (51, None, "5a1645b276d592a1");
    (52, None, "b274cb8ebf87870a");
    (53, None, "6f9bb4203de7b381");
    (54, None, "eaecb2a30b22a87f");
    (55, None, "9924a43cc1315724");
    (56, None, "bd838d3aafbf8db7");
    (57, None, "0b1a2a3265d51aea");
    (58, None, "135079a3231ce660");
    (59, None, "932b2846e4d70666");
    (60, None, "e1915f5cb1eca46c");
    (61, None, "f325965ca16d629f");
    (62, None, "575ff28e60381be5");
    (63, None, "724506eb4c328a95");
    (64, None, "d8ca02850bc4d2ac");
    (255, None, "1ab24dc7fe69c1a9");
    (256, None, "d7bfa7d226059d99");
    (1023, None, "f195fad91b2b11ea");
    (4096, None, "3c55c1e22db718bf");
    (8199, None, "a056ef9fdff3acbb");
    (0, Some '\xff', "02b8dd277b2fd1ca");
    (6, Some '\x80', "fe653d06e0500e70");
    (7, Some '\x01', "797532e6300ae0f9");
    (8, Some '\xfe', "fe9e9b9804213513");
    (15, Some '\x01', "669478919c0024b7");
    (31, Some '\x00', "b19b62c68e9ebf48");
    (32, Some '\x00', "61f20b90cfec983f");
    (32, Some '\x01', "e673ac47477869b8");
    (32, Some '\x02', "6912efd598c8a43c");
    (32, Some '\xff', "3c152b506b799869");
    (63, Some '\x07', "b2518d0bfd610e95");
    (255, Some '\x01', "21860b9611281929");
    (256, Some '\xff', "7d5469320a771176");
    (1023, Some '\x80', "d864ddf108372f72");
    (4096, Some '\x03', "bbfcec83c10ff62e");
    (8199, Some '\xfe', "071863e48065299a");
  ]
