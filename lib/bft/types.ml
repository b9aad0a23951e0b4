(** Shared protocol types and configuration for the PBFT substrate. *)

type view = int

type seqno = int

(** Static system configuration.  Active replicas occupy engine node ids
    [0 .. n-1], warm standbys [n .. n+s-1], clients [>= n+s]. *)
type config = {
  n : int;  (** number of active replicas, [n = 3f + 1] *)
  s : int;  (** warm standbys shadowing the group (0 = plain 3f+1) *)
  f : int;  (** tolerated faults *)
  checkpoint_period : int;  (** the paper's [k]: checkpoint every k-th request *)
  log_window : int;  (** [L]: high watermark is [h + L]; a multiple of [k] *)
  client_timeout_us : int;  (** client retransmission timer *)
  viewchange_timeout_us : int;  (** backup progress timer *)
  n_principals : int;  (** replicas + clients, for MAC keychains *)
  batch_max : int;  (** max client requests ordered per consensus instance *)
  max_inflight : int;  (** proposals outstanding before the primary batches *)
  st_window : int;  (** state transfer: max fetch requests in flight *)
  st_cache_objs : int;  (** state transfer: digest-keyed leaf-cache capacity *)
  shard_bounds : int array;
      (** oid-range -> shard map: ascending exclusive upper bounds, one per
          shard; shard [k] owns oids [bounds.(k-1) .. bounds.(k) - 1].  The
          empty array means a single unsharded instance owning every oid —
          the configuration every pre-sharding deployment runs. *)
}

let make_config ?(checkpoint_period = 128) ?(log_window = 256)
    ?(client_timeout_us = 150_000) ?(viewchange_timeout_us = 500_000) ?(batch_max = 16)
    ?(max_inflight = 8) ?(st_window = 8) ?(st_cache_objs = 256)
    ?(standbys = 0) ?(shard_bounds = [||]) ~f ~n_clients () =
  let n = (3 * f) + 1 in
  (let ok = ref true in
   Array.iteri
     (fun k b -> if b <= 0 || (k > 0 && b <= shard_bounds.(k - 1)) then ok := false)
     shard_bounds;
   Base_util.Invariant.require !ok
     "make_config: shard_bounds must be strictly ascending positive");
  {
    n;
    s = standbys;
    f;
    checkpoint_period;
    log_window;
    client_timeout_us;
    viewchange_timeout_us;
    n_principals = n + standbys + n_clients;
    batch_max;
    max_inflight;
    st_window;
    st_cache_objs;
    shard_bounds;
  }

(** {1 Shards} *)

let n_shards config = max 1 (Array.length config.shard_bounds)

(* Each shard rotates its primary through the same replica set with a
   per-shard offset, so in any view the S primaries sit on S distinct nodes
   (for S <= n) and shard 0's rotation coincides with the unsharded one. *)
let shard_primary config ~shard view = (view + shard) mod config.n

let shard_of_oid config oid =
  let bounds = config.shard_bounds in
  let last = Array.length bounds - 1 in
  if last < 0 then 0
  else begin
    (* Linear scan: S is small (<= a handful) and this sits on the client's
       routing path, where a branchy binary search would not pay off. *)
    let k = ref last in
    for i = last - 1 downto 0 do
      if oid < bounds.(i) then k := i
    done;
    !k
  end

(* [lo, hi) oid range owned by a shard. [hi] of the last shard is the last
   bound; callers with more objects than the final bound keep the excess in
   the last shard by [shard_of_oid]'s clamping. *)
let shard_range config ~n_objects shard =
  let bounds = config.shard_bounds in
  if Array.length bounds = 0 then (0, n_objects)
  else
    let lo = if shard = 0 then 0 else bounds.(shard - 1) in
    let hi = if shard = Array.length bounds - 1 then max bounds.(shard) n_objects else bounds.(shard) in
    (lo, hi)

let uniform_shards ~shards ~n_objects =
  if shards <= 1 then [||]
  else Array.init shards (fun k -> (k + 1) * n_objects / shards)

(* Internal (runtime-injected) requests, e.g. cross-shard locks, carry a
   virtual client id well above any real principal id — it must stay
   non-negative because batches encode client ids as XDR u32 on the wire. *)
let internal_client_base = 0x4000_0000

let internal_client ~shard = internal_client_base + shard

let is_internal_client c = c >= internal_client_base

let replica_ids config = List.init config.n Fun.id

(** Quorum sizes. *)
let quorum config = (2 * config.f) + 1

let weak_quorum config = config.f + 1

let is_replica config id = id >= 0 && id < config.n

(* Replicas plus standbys: the principals that hold replica-side keys and
   receive group-sealed checkpoint announcements.  Clients start here. *)
let group_size config = config.n + config.s

let is_standby config id = id >= config.n && id < config.n + config.s
