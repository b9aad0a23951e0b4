type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_counts : int array; (* length h_bounds + 1; last slot counts overflows *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 64

(* Latency buckets in microseconds: sub-millisecond through multi-second,
   matching the range of the simulated network (60 us links) up to reboot
   times (seconds). *)
let default_latency_buckets_us =
  [|
    100.; 250.; 500.; 1_000.; 2_500.; 5_000.; 10_000.; 25_000.; 50_000.; 100_000.; 250_000.;
    500_000.; 1_000_000.; 2_500_000.; 5_000_000.;
  |]

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s (wanted a %s)" name
       (kind_name existing) wanted)

let counter t name =
  match Hashtbl.find_opt t name with
  | Some (Counter c) -> c
  | Some m -> clash name m "counter"
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t name (Counter c);
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by

let counter_value c = c.c_value

let gauge t name =
  match Hashtbl.find_opt t name with
  | Some (Gauge g) -> g
  | Some m -> clash name m "gauge"
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    Hashtbl.replace t name (Gauge g);
    g

let set_max g v = if v > g.g_value then g.g_value <- v

let gauge_value g = g.g_value

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bucket bounds";
  Array.iteri
    (fun i b ->
      if Float.is_nan b then invalid_arg "Metrics.histogram: NaN bucket bound";
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    bounds

let histogram ?(buckets = default_latency_buckets_us) t name =
  match Hashtbl.find_opt t name with
  | Some (Histogram h) ->
    if
      not
        (Array.length h.h_bounds = Array.length buckets
        && Array.for_all2 Float.equal h.h_bounds buckets)
    then
      invalid_arg (Printf.sprintf "Metrics: histogram %s re-registered with different buckets" name);
    h
  | Some m -> clash name m "histogram"
  | None ->
    check_bounds buckets;
    let h =
      {
        h_name = name;
        h_bounds = Array.copy buckets;
        h_counts = Array.make (Array.length buckets + 1) 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = Float.infinity;
        h_max = Float.neg_infinity;
      }
    in
    Hashtbl.replace t name (Histogram h);
    h

(* A value lands in the first bucket whose upper bound is >= v; values above
   every bound land in the overflow slot. *)
let bucket_index h v =
  let n = Array.length h.h_bounds in
  let rec find i = if i >= n then n else if v <= h.h_bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  if not (Float.is_nan v) then begin
    h.h_counts.(bucket_index h v) <- h.h_counts.(bucket_index h v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let hist_count h = h.h_count

let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let bucket_counts h = Array.copy h.h_counts

(* Bucket-interpolated quantile estimate (q in [0,1]); exact only at bucket
   edges, which is all the regression gates need. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_count in
    let n = Array.length h.h_bounds in
    let rec walk i cum =
      if i > n then h.h_max
      else begin
        let cum' = cum + h.h_counts.(i) in
        if float_of_int cum' >= rank && h.h_counts.(i) > 0 then begin
          let lo = if i = 0 then Float.min h.h_min h.h_bounds.(0) else h.h_bounds.(i - 1) in
          let hi = if i = n then h.h_max else h.h_bounds.(i) in
          let lo = Float.max lo h.h_min and hi = Float.min hi h.h_max in
          if hi <= lo then lo
          else begin
            let frac = (rank -. float_of_int cum) /. float_of_int h.h_counts.(i) in
            lo +. (Float.min 1.0 (Float.max 0.0 frac) *. (hi -. lo))
          end
        end
        else walk (i + 1) cum'
      end
    in
    walk 0 0
  end

let reset t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (_, m) ->
         match m with
         | Counter c -> c.c_value <- 0
         | Gauge g -> g.g_value <- 0.0
         | Histogram h ->
           Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
           h.h_count <- 0;
           h.h_sum <- 0.0;
           h.h_min <- Float.infinity;
           h.h_max <- Float.neg_infinity)

let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t [] |> List.sort String.compare

let hist_json h =
  let buckets =
    List.init
      (Array.length h.h_bounds + 1)
      (fun i ->
        Json.obj
          [
            ("le", if i < Array.length h.h_bounds then Json.Float h.h_bounds.(i) else Json.Str "+inf");
            ("count", Json.Int h.h_counts.(i));
          ])
  in
  Json.obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
      ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
      ("buckets", Json.List buckets);
    ]

let to_json t =
  Json.obj
    (List.map
       (fun name ->
         match Hashtbl.find t name with
         | Counter c -> (name, Json.Int c.c_value)
         | Gauge g -> (name, Json.Float g.g_value)
         | Histogram h -> (name, hist_json h))
       (names t))

let pp ppf t =
  List.iter
    (fun name ->
      match Hashtbl.find t name with
      | Counter c -> Format.fprintf ppf "  %-44s %12d@." c.c_name c.c_value
      | Gauge g -> Format.fprintf ppf "  %-44s %12.1f@." g.g_name g.g_value
      | Histogram h ->
        if h.h_count = 0 then Format.fprintf ppf "  %-44s %12s@." h.h_name "(empty)"
        else
          Format.fprintf ppf "  %-44s n=%-8d mean=%-10.1f p50=%-10.1f p99=%-10.1f max=%-10.1f@."
            h.h_name h.h_count (hist_mean h) (quantile h 0.5) (quantile h 0.99) h.h_max)
    (names t)
