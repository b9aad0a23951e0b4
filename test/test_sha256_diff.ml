(* Differential suite for SHA-256 and HMAC.

   [Base_crypto.Sha256] runs its compression function in a C kernel over
   runs of whole blocks straight from the caller's buffer, pads in place
   and counts bytes in an [int]; [Hmac]'s prepared path copies midstates
   into scratch contexts.  The pure-OCaml implementation, kept verbatim in
   [Sha256_ref], is the oracle: every digest and every tag must be
   byte-identical to it, however the input is split into updates, wherever
   it sits in the buffer and however contexts and MACs interleave — and no
   scratch buffer may leak into a returned value. *)

module Sha256 = Base_crypto.Sha256
module Hmac = Base_crypto.Hmac
module Gen = QCheck2.Gen

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let hex = Base_util.Hex.encode

let input n = String.init n (fun i -> Char.chr (((i * 131) + (n * 7)) land 0xff))

(* Every length 0..300 covers each padding case: the 55/56 boundary (length
   fits in the last block or spills into one more), 63/64 (empty final
   buffer) and the same pair one block later (119/120). *)
let test_every_length () =
  for n = 0 to 300 do
    let s = input n in
    Alcotest.(check string) (Printf.sprintf "length %d" n) (hex (Sha256_ref.digest s))
      (hex (Sha256.digest s));
    let out = Bytes.make 40 '\xee' in
    let ctx = Sha256.init () in
    Sha256.update ctx s;
    Sha256.finalize_into ctx out;
    Alcotest.(check string) (Printf.sprintf "length %d, finalize_into" n)
      (Sha256_ref.digest s) (Bytes.sub_string out 0 32);
    Alcotest.(check string) "bytes past the digest untouched" (String.make 8 '\xee')
      (Bytes.sub_string out 32 8)
  done

(* Feed [s] as chunks cut at [cuts], each chunk through a different entry
   point: [update], [update_bytes] from an offset inside a larger buffer,
   or [update_char] for one-byte chunks. *)
let feed ctx s cuts =
  let n = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let rec go pos k = function
    | [] -> chunk pos (n - pos) k
    | c :: rest ->
      chunk pos (c - pos) k;
      go c (k + 1) rest
  and chunk pos len k =
    if len = 1 then Sha256.update_char ctx s.[pos]
    else if k mod 2 = 0 then Sha256.update ctx (String.sub s pos len)
    else begin
      let padded = Bytes.of_string ("xyz" ^ s ^ "xyz") in
      Sha256.update_bytes ctx padded ~pos:(3 + pos) ~len
    end
  in
  go 0 0 cuts

let gen_split =
  Gen.pair (Gen.string_size (Gen.int_bound 400)) (Gen.list_size (Gen.int_bound 12) Gen.nat)

let chunked_updates =
  qtest "chunked update/update_bytes/update_char = reference" gen_split (fun (s, cuts) ->
      let ctx = Sha256.init () in
      feed ctx s cuts;
      String.equal (Sha256.finalize ctx) (Sha256_ref.digest s))

(* Two live contexts: alternate their updates, with one-shot digests (which
   share a context of their own) in between. *)
let interleaved_contexts =
  qtest "two interleaved contexts = reference"
    (Gen.triple (Gen.string_size (Gen.int_bound 300)) (Gen.string_size (Gen.int_bound 300))
       (Gen.int_range 1 70))
    (fun (a, b, step) ->
      let ca = Sha256.init () and cb = Sha256.init () in
      let rec go pos =
        if pos < max (String.length a) (String.length b) then begin
          let part s =
            let n = String.length s in
            String.sub s (min pos n) (max 0 (min step (n - pos)))
          in
          Sha256.update ca (part a);
          ignore (Sha256.digest (part b));
          Sha256.update cb (part b);
          go (pos + step)
        end
      in
      go 0;
      let da = Sha256.finalize ca in
      let db = Sha256.finalize cb in
      String.equal da (Sha256_ref.digest a) && String.equal db (Sha256_ref.digest b))

(* A midstate copied into another context continues independently of its
   source, as the HMAC key pads rely on. *)
let copy_into_midstate =
  qtest "copy_into: both copies continue independently"
    (Gen.triple (Gen.string_size (Gen.int_bound 200)) Gen.string Gen.string)
    (fun (prefix, x, y) ->
      let src = Sha256.init () in
      Sha256.update src prefix;
      let dst = Sha256.init () in
      Sha256.update dst "stale state the copy must overwrite";
      Sha256.copy_into ~src ~dst;
      Sha256.update dst y;
      Sha256.update src x;
      String.equal (Sha256.finalize dst) (Sha256_ref.digest (prefix ^ y))
      && String.equal (Sha256.finalize src) (Sha256_ref.digest (prefix ^ x)))

(* HMAC-SHA256 built from the reference hash, the RFC 2104 way. *)
let ref_hmac ~key msg =
  let key = if String.length key > 64 then Sha256_ref.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\000' in
  let pad c = String.map (fun k -> Char.chr (Char.code k lxor c)) key in
  Sha256_ref.digest_list [ pad 0x5c; Sha256_ref.digest_list [ pad 0x36; msg ] ]

let gen_key = Gen.string_size (Gen.int_bound 100)

let interleaved_hmac =
  qtest "interleaved mac_prepared/verify_prepared under two keys = reference"
    (Gen.pair (Gen.pair gen_key gen_key)
       (Gen.list_size (Gen.int_range 1 6) (Gen.pair Gen.bool Gen.string)))
    (fun ((k1, k2), msgs) ->
      let p1 = Hmac.prepare ~key:k1 and p2 = Hmac.prepare ~key:k2 in
      List.for_all
        (fun (first, msg) ->
          let key, p, other = if first then (k1, p1, p2) else (k2, p2, p1) in
          let expected = ref_hmac ~key msg in
          let suffixed = ref_hmac ~key (msg ^ "\x07") in
          let tag = Hmac.mac_prepared p msg in
          ignore (Hmac.mac_prepared other msg);
          String.equal tag expected
          && Hmac.verify_prepared p msg ~tag:expected
          && (String.equal k1 k2 || not (Hmac.verify_prepared other msg ~tag:expected))
          && String.equal (Hmac.mac_prepared ~suffix:'\x07' p msg) suffixed
          && Hmac.verify_prepared ~suffix:'\x07' p msg ~tag:suffixed
          && not (Hmac.verify_prepared p msg ~tag:suffixed))
        msgs)

(* Returned values own their bytes: the next call reuses every scratch
   buffer, and must not change a tag or digest handed out before it. *)
let test_results_not_aliased () =
  let p = Hmac.prepare ~key:"alias" in
  let tag = Hmac.mac_prepared p "first" in
  let saved = String.init 32 (String.get tag) in
  ignore (Hmac.mac_prepared p "second");
  ignore (Hmac.verify_prepared p "third" ~tag);
  ignore (Hmac.mac_prepared ~suffix:'x' p "fourth");
  Alcotest.(check string) "tag unchanged by later MACs" (hex saved) (hex tag);
  let d = Sha256.digest "first" in
  let saved = String.init 32 (String.get d) in
  ignore (Sha256.digest "second");
  ignore (Sha256.digest_list [ "third"; "fourth" ]);
  Alcotest.(check string) "digest unchanged by later digests" (hex saved) (hex d);
  Alcotest.(check bool) "verify rejects a short tag" false
    (Hmac.verify_prepared p "first" ~tag:(String.sub tag 0 31))

(* Inputs of 1-64 KB at an unaligned offset in a larger buffer, fed through
   [update_bytes] in random pieces: most of the bytes reach the kernel as
   multi-block runs read straight from the caller's buffer, starting
   anywhere in it. *)
let large_unaligned =
  qtest ~count:60 "1-64 KB via update_bytes at unaligned offsets = reference"
    (Gen.triple
       (Gen.string_size ~gen:Gen.char (Gen.int_range 1024 65536))
       (Gen.int_bound 63)
       (Gen.list_size (Gen.int_bound 8) (Gen.int_bound 65536)))
    (fun (s, off, cuts) ->
      let n = String.length s in
      let buf = Bytes.make (off + n + 7) '\xa5' in
      Bytes.blit_string s 0 buf off n;
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) @ [ n ] in
      let ctx = Sha256.init () in
      ignore
        (List.fold_left
           (fun from upto ->
             Sha256.update_bytes ctx buf ~pos:(off + from) ~len:(upto - from);
             upto)
           0 cuts);
      String.equal (Sha256.finalize ctx) (Sha256_ref.digest s))

(* A range outside the buffer is refused before it reaches the kernel,
   which reads the buffer unchecked, and before the context counts it.
   [max_int - 10] is the offset whose end overflowed the old check. *)
let test_out_of_range () =
  let data = Bytes.make 128 'x' in
  let ctx = Sha256.init () in
  List.iter
    (fun (what, pos, len) ->
      match Sha256.update_bytes ctx data ~pos ~len with
      | () -> Alcotest.failf "%s: accepted" what
      | exception Base_util.Invariant.Violation _ -> ())
    [
      ("offset near max_int", max_int - 10, 100);
      ("length past the end", 29, 100);
      ("length max_int", 1, max_int);
      ("negative offset", -1, 10);
      ("negative length", 10, -1);
    ];
  Sha256.update_bytes ctx data ~pos:28 ~len:100;
  Alcotest.(check string) "refused ranges leave the context untouched"
    (hex (Sha256_ref.digest (String.make 100 'x')))
    (hex (Sha256.finalize ctx))

let suite =
  [
    Alcotest.test_case "every length 0..300 = reference" `Quick test_every_length;
    chunked_updates;
    interleaved_contexts;
    copy_into_midstate;
    interleaved_hmac;
    Alcotest.test_case "returned tags and digests are not aliased" `Quick test_results_not_aliased;
    large_unaligned;
    Alcotest.test_case "out-of-range update_bytes raises" `Quick test_out_of_range;
  ]
