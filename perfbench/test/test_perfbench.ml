(* Tests of the benchmark's own logic: the percentile rule, self-time
   subtraction, the overhead arithmetic and repeatability of a tiny
   seeded workload. *)

open Perfbench

let opt_float = Alcotest.(option (float 0.0))

let test_highest_supported () =
  let pick n = Pct.highest_supported ~n [ 50.0; 90.0; 99.0; 99.9 ] in
  Alcotest.check opt_float "1000 samples reach p99" (Some 99.0) (pick 1000);
  Alcotest.check opt_float "999 samples stop at p90" (Some 90.0) (pick 999);
  Alcotest.check opt_float "10000 samples reach p99.9" (Some 99.9) (pick 10_000);
  Alcotest.check opt_float "99 samples stop at p50" (Some 50.0) (pick 99);
  Alcotest.check opt_float "too few for any" None (pick 19);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Pct.beyond ~n:1000 99.0);
  Alcotest.(check int) "nine beyond p99 of 999" 9 (Pct.beyond ~n:999 99.0)

let test_nearest_rank () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Pct.of_sorted a 50.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Pct.of_sorted a 99.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Pct.of_sorted a 100.0);
  Alcotest.(check (float 0.0)) "median of unsorted" 2.0 (Pct.median [| 3.0; 1.0; 2.0 |])

let span ?(children = []) name start stop = { Spans.name; start; stop; children }

let test_self_time () =
  (* GC spans nest and overlap each other and the child span; each
     covered nanosecond is subtracted once. *)
  let gc = Spans.merge [ (20, 40); (25, 35); (50, 60); (95, 120); (200, 300) ] in
  Alcotest.(check (list (pair int int))) "merged" [ (20, 40); (50, 60); (95, 120); (200, 300) ]
    (Array.to_list gc);
  let parent = span "engine.run_until" 0 100 ~children:[ (10, 30) ] in
  (* covered: (10,40) + (50,60) + (95,100) = 45 *)
  Alcotest.(check int) "self time" 55 (Spans.self_time parent ~gc);
  Alcotest.(check int) "touching, not overlapping" 50
    (Spans.self_time (span "x" 140 190) ~gc:(Spans.merge [ (100, 140) ]));
  Alcotest.(check int) "fully covered" 0 (Spans.self_time (span "x" 210 290) ~gc);
  let by_name = Spans.self_by_name [ parent; span "engine.run_until" 100 150; span "lb.create" 0 10 ] ~gc in
  Alcotest.(check int) "summed per name" (55 + 30) (Hashtbl.find by_name "engine.run_until");
  Alcotest.(check int) "other name" 10 (Hashtbl.find by_name "lb.create")

let test_record_nesting () =
  let t = Spans.create () in
  Spans.record t "outer" (fun () ->
      Spans.record t "inner" ignore;
      Spans.record t "inner" ignore);
  match Spans.spans t with
  | [ i1; i2; outer ] ->
    Alcotest.(check string) "outer last" "outer" outer.Spans.name;
    Alcotest.(check (list (pair int int))) "children recorded"
      [ (i2.Spans.start, i2.Spans.stop); (i1.Spans.start, i1.Spans.stop) ]
      outer.Spans.children;
    Alcotest.(check bool) "self time within duration" true
      (Spans.self_time outer ~gc:[||] <= outer.Spans.stop - outer.Spans.start)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_overhead_share () =
  Alcotest.(check (float 1e-12)) "a quarter more" 0.25
    (Bench.overhead_share ~traced:1250.0 ~untraced:1000.0);
  Alcotest.(check (float 1e-12)) "no overhead" 0.0 (Bench.overhead_share ~traced:7.0 ~untraced:7.0);
  Alcotest.(check (float 1e-12)) "no untraced base" 0.0 (Bench.overhead_share ~traced:7.0 ~untraced:0.0)

(* A small cut of syn-churn: 60 ms of Case 1 traffic. *)
let tiny =
  match Mix.syn_churn.Mix.shape with
  | Mix.Device d ->
    {
      Mix.syn_churn with
      shape = Mix.Device { d with duration = Engine.Sim_time.ms 120 };
      horizon = Engine.Sim_time.ms 80;
    }
  | Mix.Fleet _ -> assert false

let rep ~seed =
  let input = Mix.make_input tiny ~seed in
  Bench.settle ();
  Bench.run_rep tiny input ~seed ~shards:1 ~offered:(Mix.offered input)

let test_repeatable () =
  let a = rep ~seed:7 and b = rep ~seed:7 in
  Alcotest.(check bool) "requests completed" true (a.Bench.completed > 100);
  Alcotest.(check int) "same digest" a.Bench.digest b.Bench.digest;
  Alcotest.(check (float 0.0)) "same minor words" a.Bench.minor_words b.Bench.minor_words;
  Alcotest.(check int) "same completed" a.Bench.completed b.Bench.completed;
  let check = Bench.check [ a; b ] in
  Alcotest.(check (list string)) "output check passes" [] check.Bench.problems;
  Alcotest.(check bool) "another seed, another digest" true
    ((rep ~seed:8).Bench.digest <> a.Bench.digest)

let test_check_flags_mismatch () =
  let a = rep ~seed:7 in
  let b = { a with Bench.digest = a.Bench.digest + 1 } in
  let check = Bench.check [ a; b ] in
  Alcotest.(check int) "one problem" 1 (List.length check.Bench.problems);
  Alcotest.(check int) "mismatched repetition fails whole" a.Bench.model.Mix.offered check.Bench.failed

(* A seed's counts must not depend on how many repetitions fit the
   time budget. *)
let test_check_counts_once () =
  let a = rep ~seed:7 in
  let lost = { a with Bench.model = { a.Bench.model with Mix.completed = a.Bench.model.Mix.completed - 3 } } in
  let once = Bench.check [ lost ] and thrice = Bench.check [ lost; lost; lost ] in
  Alcotest.(check int) "attempted is the input's requests" a.Bench.model.Mix.offered thrice.Bench.attempted;
  Alcotest.(check int) "same attempted" once.Bench.attempted thrice.Bench.attempted;
  Alcotest.(check int) "same failed" once.Bench.failed thrice.Bench.failed;
  Alcotest.(check int) "lost requests fail"
    (a.Bench.model.Mix.offered - a.Bench.model.Mix.completed + 3)
    thrice.Bench.failed

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "highest supported percentile" `Quick test_highest_supported;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time minus nested gc" `Quick test_self_time;
          Alcotest.test_case "record nesting" `Quick test_record_nesting;
        ] );
      ("overhead", [ Alcotest.test_case "overhead share" `Quick test_overhead_share ]);
      ( "workload",
        [
          Alcotest.test_case "tiny workload repeats" `Quick test_repeatable;
          Alcotest.test_case "check flags digest mismatch" `Quick test_check_flags_mismatch;
          Alcotest.test_case "check counts each request once" `Quick test_check_counts_once;
        ] );
    ]
