(* Differential suite for SHA-256 and SipHash-2-4.

   [Base_crypto.Sha256] runs its compression function in a C kernel over
   runs of whole blocks straight from the caller's buffer, pads in place
   and counts bytes in an [int].  The pure-OCaml implementation, kept
   verbatim in [Sha256_ref], is the oracle: every digest must be
   byte-identical to it, however the input is split into updates, wherever
   it sits in the buffer and however contexts interleave — and no scratch
   buffer may leak into a returned value.  [Base_crypto.Siphash]'s C
   kernel, which gathers the message tail and the optional suffix byte
   into a last word, is checked the same way against [Siphash_ref]. *)

module Sha256 = Base_crypto.Sha256
module Siphash = Base_crypto.Siphash
module Auth = Base_crypto.Auth
module Gen = QCheck2.Gen

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
    let ctx = Sha256.init () in
    Sha256.update ctx s;
    Alcotest.(check string) (Printf.sprintf "length %d, own context" n)
      (Sha256_ref.digest s) (Sha256.finalize ctx)
  done

(* Feed [s] as chunks cut at [cuts], alternating the entry point:
   [update], or [update_bytes] from an offset inside a larger buffer. *)
let feed ctx s cuts =
  let n = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let rec go pos k = function
    | [] -> chunk pos (n - pos) k
    | c :: rest ->
      chunk pos (c - pos) k;
      go c (k + 1) rest
  and chunk pos len k =
    if k mod 2 = 0 then Sha256.update ctx (String.sub s pos len)
    else begin
      let padded = Bytes.of_string ("xyz" ^ s ^ "xyz") in
      Sha256.update_bytes ctx padded ~pos:(3 + pos) ~len
    end
  in
  go 0 0 cuts

let gen_split =
  Gen.pair (Gen.string_size (Gen.int_bound 400)) (Gen.list_size (Gen.int_bound 12) Gen.nat)

let chunked_updates =
  Helpers.qtest "chunked update/update_bytes = reference" gen_split (fun (s, cuts) ->
      let ctx = Sha256.init () in
      feed ctx s cuts;
      String.equal (Sha256.finalize ctx) (Sha256_ref.digest s))

(* Two live contexts: alternate their updates, with one-shot digests (which
   share a context of their own) in between. *)
let interleaved_contexts =
  Helpers.qtest "two interleaved contexts = reference"
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

(* Random keys, lengths and suffixes: every tail length, with and without
   the suffix byte (which fills the last word when 7 bytes remain), and
   lengths up to past 8 KB, since a reply's MAC covers its whole wire. *)
let siphash_matches_reference =
  Helpers.qtest "siphash: random keys, lengths and suffixes = reference"
    (Gen.triple
       (Gen.pair Gen.int64 Gen.int64)
       (Gen.string_size ~gen:Gen.char (Gen.int_bound 9_000))
       (Gen.option Gen.char))
    (fun ((k0, k1), msg, suffix) ->
      let full, code =
        match suffix with Some c -> (msg ^ String.make 1 c, Char.code c) | None -> (msg, -1)
      in
      Int64.equal (Siphash.mac ~k0 ~k1 msg ~suffix:code) (Siphash_ref.mac ~k0 ~k1 full))

(* Returned values own their bytes: the next call reuses every scratch
   buffer, and must not change a tag or digest handed out before it. *)
let test_results_not_aliased () =
  let chains = Auth.create ~seed:3L ~n_principals:2 in
  let tag = Auth.mac chains.(0) ~receiver:1 "first" in
  let saved = String.init 8 (String.get tag) in
  ignore (Auth.mac chains.(0) ~receiver:1 "second");
  ignore (Auth.check chains.(1) ~sender:0 "third" ~mac:tag);
  ignore (Auth.mac chains.(0) ~receiver:1 ~suffix:'x' "fourth");
  Alcotest.(check string) "tag unchanged by later MACs" (hex saved) (hex tag);
  let d = Sha256.digest "first" in
  let saved = String.init 32 (String.get d) in
  ignore (Sha256.digest "second");
  ignore (Sha256.digest_list [ "third"; "fourth" ]);
  Alcotest.(check string) "digest unchanged by later digests" (hex saved) (hex d);
  Alcotest.(check bool) "check accepts the tag" true (Auth.check chains.(1) ~sender:0 "first" ~mac:tag);
  Alcotest.(check bool) "check rejects a short tag" false
    (Auth.check chains.(1) ~sender:0 "first" ~mac:(String.sub tag 0 7));
  Alcotest.(check bool) "check rejects a long tag" false
    (Auth.check chains.(1) ~sender:0 "first" ~mac:(tag ^ "\000"))

(* Inputs of 1-64 KB at an unaligned offset in a larger buffer, fed through
   [update_bytes] in random pieces: most of the bytes reach the kernel as
   multi-block runs read straight from the caller's buffer, starting
   anywhere in it. *)
let large_unaligned =
  Helpers.qtest ~count:60 "1-64 KB via update_bytes at unaligned offsets = reference"
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
    siphash_matches_reference;
    Alcotest.test_case "returned tags and digests are not aliased" `Quick test_results_not_aliased;
    large_unaligned;
    Alcotest.test_case "out-of-range update_bytes raises" `Quick test_out_of_range;
  ]
