type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let empty_summary =
  { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [p] of the non-empty ascending [sorted], interpolating between ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  (* NaN would poison every aggregate and has no meaningful order; drop it
     up front so the sort (Float.compare: a total order, -0 < +0, no
     polymorphic-compare boxing) only sees comparable values. *)
  match List.filter (fun x -> not (Float.is_nan x)) xs with
  | [] -> empty_summary
  | xs ->
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs /. float_of_int n
    in
    {
      count = n;
      mean = m;
      stddev = sqrt var;
      min = arr.(0);
      max = arr.(n - 1);
      p50 = percentile arr 0.5;
      p90 = percentile arr 0.9;
      p99 = percentile arr 0.99;
    }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
    s.count s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max
