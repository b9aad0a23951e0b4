(** A small object-oriented database, in the spirit of the OODB the BASE
    abstract mentions ("replicas ran the same, non-deterministic
    implementation").

    The engine stores objects with scalar fields and reference fields.  It
    is deliberately non-deterministic in exactly the ways that break naive
    state-machine replication:

    - internal object identifiers are random tokens drawn from the
      instance's seed;
    - iteration order of the object table depends on those tokens;
    - every update stamps the object with a version timestamp read from the
      host's local clock.

    Replicas running this engine from different seeds diverge immediately at
    the concrete level; the conformance wrapper in {!Oodb_wrapper} hides all
    of it behind the abstract specification. *)

module Prng = Base_util.Prng

type record = {
  mutable fields : (string * string) list;  (* unordered *)
  mutable refs : (string * string) list;  (* field -> internal oid token *)
  mutable version_stamp : int64;  (* from the local clock: divergent *)
}

type t = {
  prng : Prng.t;
  now : unit -> int64;
  objects : (string, record) Hashtbl.t;
  root_token : string;
}

let fresh_token t = "obj-" ^ Base_util.Hex.encode (Bytes.to_string (Prng.bytes t.prng 8))

let create ~seed ~now =
  let prng = Prng.create seed in
  let t = { prng; now; objects = Hashtbl.create 64; root_token = "" } in
  let root = fresh_token t in
  Hashtbl.replace t.objects root { fields = []; refs = []; version_stamp = now () };
  { t with root_token = root }

let root t = t.root_token

let get t token = Hashtbl.find_opt t.objects token

let alloc t =
  let token = fresh_token t in
  Hashtbl.replace t.objects token { fields = []; refs = []; version_stamp = t.now () };
  token

let delete t token = Hashtbl.remove t.objects token

let set_field t token field value =
  match get t token with
  | None -> false
  | Some r ->
    r.fields <- (field, value) :: List.remove_assoc field r.fields;
    r.version_stamp <- t.now ();
    true

let get_field t token field =
  match get t token with None -> None | Some r -> List.assoc_opt field r.fields

let set_ref t token field target =
  match get t token with
  | None -> false
  | Some r ->
    r.refs <- (field, target) :: List.remove_assoc field r.refs;
    r.version_stamp <- t.now ();
    true

let clear_ref t token field =
  match get t token with
  | None -> false
  | Some r ->
    r.refs <- List.remove_assoc field r.refs;
    r.version_stamp <- t.now ();
    true

let count t = Hashtbl.length t.objects
