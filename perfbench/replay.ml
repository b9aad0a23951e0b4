(* Codec and crypto kernels, replayed on real traffic.

   The traced run's [size_of] hook keeps every 53rd protocol envelope sent.
   This module times that sample through the public entry points alone —
   [Message.decode_body] / [encode_body], [Message.of_wire] +
   [Message.verify] over an [Auth.create] keychain, and [Sha256.digest] —
   and checks what they return: every captured wire decodes, re-encodes to
   the same bytes, and a re-sealed envelope verifies. *)

module Message = Base_bft.Message
module Auth = Base_crypto.Auth
module Sha256 = Base_crypto.Sha256

type t = {
  decode_ns_per_msg : float;
  encode_ns_per_msg : float;
  digest_ns_per_kb : float;
  mac_verify_ns_per_msg : float;
  errors : string list;
}

(* Run [f] over the whole sample repeatedly for at least [min_ns]; mean ns
   per pass. *)
let time_passes ?(min_ns = 20_000_000) f =
  let t0 = Span.now_ns () in
  let passes = ref 0 in
  while Span.now_ns () - t0 < min_ns || !passes = 0 do
    f ();
    incr passes
  done;
  float_of_int (Span.now_ns () - t0) /. float_of_int !passes

let run (samples : Builders.sample array) ~n_principals ~n_replicas =
  let count = Array.length samples in
  if count = 0 then
    {
      decode_ns_per_msg = 0.0;
      encode_ns_per_msg = 0.0;
      digest_ns_per_kb = 0.0;
      mac_verify_ns_per_msg = 0.0;
      errors = [ "no envelopes captured" ];
    }
  else begin
    let errors = ref [] in
    let fail e = if not (List.mem e !errors) then errors := e :: !errors in
    Array.iter
      (fun s ->
        match Message.decode_body s.Builders.s_wire with
        | Ok body ->
          if not (String.equal (Message.encode_body body) s.Builders.s_wire) then
            fail "re-encoding a decoded envelope changed its bytes"
        | Error e -> fail ("captured envelope does not decode: " ^ e))
      samples;
    let per_msg ns = ns /. float_of_int count in
    let decode =
      time_passes (fun () ->
          Array.iter (fun s -> ignore (Message.decode_body s.Builders.s_wire)) samples)
    in
    let encode =
      time_passes (fun () ->
          Array.iter (fun s -> ignore (Message.encode_body s.Builders.s_body)) samples)
    in
    let bytes = Array.fold_left (fun acc s -> acc + String.length s.Builders.s_wire) 0 samples in
    let digest =
      time_passes (fun () -> Array.iter (fun s -> ignore (Sha256.digest s.Builders.s_wire)) samples)
    in
    (* MAC check only: re-seal each body for the replicas under a replay
       keychain, rebuild the envelope from its wire bytes and memoise the
       digest, then time [verify] alone. *)
    let chains = Auth.create ~seed:97L ~n_principals in
    let receiver s = if s.Builders.s_sender < n_replicas then (s.Builders.s_sender + 1) mod n_replicas else 0 in
    let received =
      Array.map
        (fun s ->
          let sealed =
            Message.seal chains.(s.Builders.s_sender) ~shard:s.Builders.s_shard
              ~sender:s.Builders.s_sender ~n_receivers:n_replicas s.Builders.s_body
          in
          match
            Message.of_wire ~shard:s.Builders.s_shard ~sender:s.Builders.s_sender
              ~macs:sealed.Message.macs sealed.Message.wire
          with
          | Ok env ->
            ignore (Message.envelope_digest env);
            if not (Message.verify chains.(receiver s) ~receiver:(receiver s) env) then
              fail "a re-sealed envelope does not verify";
            (receiver s, env)
          | Error e ->
            fail ("a re-sealed envelope does not decode: " ^ e);
            (receiver s, sealed))
        samples
    in
    let verify =
      time_passes (fun () ->
          Array.iter (fun (r, env) -> ignore (Message.verify chains.(r) ~receiver:r env)) received)
    in
    {
      decode_ns_per_msg = per_msg decode;
      encode_ns_per_msg = per_msg encode;
      digest_ns_per_kb = digest /. (float_of_int bytes /. 1024.0);
      mac_verify_ns_per_msg = per_msg verify;
      errors = List.rev !errors;
    }
  end
