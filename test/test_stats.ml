(* Stats must be total: empty and NaN-polluted series are the norm when a
   benchmark window happens to contain no samples. *)

module Stats = Base_util.Stats

let check_summary ?(eps = 1e-9) name (expected : Stats.summary) (got : Stats.summary) =
  Alcotest.(check int) (name ^ " count") expected.Stats.count got.Stats.count;
  let f field e g = Alcotest.(check (float eps)) (name ^ " " ^ field) e g in
  f "mean" expected.Stats.mean got.Stats.mean;
  f "min" expected.Stats.min got.Stats.min;
  f "max" expected.Stats.max got.Stats.max;
  f "p50" expected.Stats.p50 got.Stats.p50

let test_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "empty count" 0 s.Stats.count;
  Alcotest.(check (float 0.0)) "empty mean" 0.0 s.Stats.mean;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 s.Stats.p99

let test_all_nan () =
  let s = Stats.summarize [ Float.nan; Float.nan ] in
  Alcotest.(check int) "all-NaN count" 0 s.Stats.count;
  Alcotest.(check int) "one NaN: empty" 0 (Stats.summarize [ Float.nan ]).Stats.count

let empty = Stats.summarize []

let test_nan_filtered () =
  (* NaN observations vanish; the rest aggregate as if they were absent. *)
  let s = Stats.summarize [ 2.0; Float.nan; 4.0 ] in
  check_summary "nan-filtered"
    { empty with Stats.count = 2; mean = 3.0; min = 2.0; max = 4.0; p50 = 3.0 }
    s

let test_single () =
  let s = Stats.summarize [ 7.5 ] in
  check_summary "single"
    { empty with Stats.count = 1; mean = 7.5; min = 7.5; max = 7.5; p50 = 7.5 }
    s;
  Alcotest.(check (float 1e-9)) "single stddev" 0.0 s.Stats.stddev

let test_percentile_interpolation () =
  (* Ranks 0..3: p50 falls halfway between 2 and 3, p90 at rank 2.7,
     p99 at rank 2.97; the input order does not matter. *)
  let s = Stats.summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5 s.Stats.p50;
  Alcotest.(check (float 1e-9)) "p90 interpolates" 3.7 s.Stats.p90;
  Alcotest.(check (float 1e-9)) "p99 interpolates" 3.97 s.Stats.p99;
  Alcotest.(check (float 1e-9)) "min is rank 0" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max is the last rank" 4.0 s.Stats.max

let test_negative_values () =
  (* Float.compare sorting must order negatives correctly (polymorphic
     compare on floats happens to as well, but this pins the behavior). *)
  let s = Stats.summarize [ 3.0; -1.0; 0.0 ] in
  Alcotest.(check (float 1e-9)) "neg min" (-1.0) s.Stats.min;
  Alcotest.(check (float 1e-9)) "neg max" 3.0 s.Stats.max

let test_population_stddev () =
  (* [2;4;4;4;5;5;7;9]: the textbook population-stddev example, sd = 2. *)
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "population stddev" 2.0 s.Stats.stddev

let suite =
  [
    Alcotest.test_case "empty series is total" `Quick test_empty;
    Alcotest.test_case "all-NaN series is empty" `Quick test_all_nan;
    Alcotest.test_case "NaN elements are dropped" `Quick test_nan_filtered;
    Alcotest.test_case "single element" `Quick test_single;
    Alcotest.test_case "percentile interpolation" `Quick
      test_percentile_interpolation;
    Alcotest.test_case "negative values sort correctly" `Quick test_negative_values;
    Alcotest.test_case "stddev is population stddev" `Quick test_population_stddev;
  ]
