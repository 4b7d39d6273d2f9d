(* Tests for the bench harness: the row JSON format (exact round trip,
   typed errors on damaged input), every gate rule against the
   committed baseline (the baseline passes; a doctored row fails), and
   the baseline's coverage of every row a bench run produces. *)

module Row = Bench.Row
module Gate = Bench.Gate

let check = Alcotest.check
let committed = In_channel.with_open_bin "../BENCH.json" In_channel.input_all

let baseline =
  match Row.of_json committed with
  | Ok rows -> rows
  | Error e -> failwith ("BENCH.json: " ^ e)

let quick = Some "quick"

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

let test_roundtrip_committed () =
  check Alcotest.string "BENCH.json is in the writer's canonical form" committed
    (Row.to_json baseline);
  List.iter
    (fun g ->
      check Alcotest.bool (g.Gate.id ^ " has baseline rows") true
        (List.exists (fun r -> r.Row.group = g.Gate.id) baseline))
    Bench.Groups.all

let gen_row =
  QCheck.Gen.(
    let name = string_size ~gen:printable (int_range 1 12) in
    let value =
      oneof
        [
          float;
          map float_of_int int;
          oneofl [ -1.0; 0.0; 0.1 +. 0.2; 1e-300; 4503599627370497.0; 1e15; 0.0993 ];
        ]
      >|= fun v -> if Float.is_finite v then v else 0.5
    in
    map2
      (fun (group, name, size) metrics -> { Row.group; name; size; metrics })
      (triple name name (opt name))
      (list_size (int_range 0 6) (pair name value)))

let prop_roundtrip =
  QCheck.Test.make ~name:"write/read round trip is exact" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) gen_row))
    (fun rows ->
      match Row.of_json (Row.to_json rows) with
      | Ok rows' -> rows' = rows
      | Error _ -> false)

let test_damaged_input () =
  let text = Row.to_json (List.filteri (fun i _ -> i mod 20 = 0) baseline) in
  for n = 0 to String.length text - 2 do
    match Row.of_json (String.sub text 0 n) with
    | Ok _ -> Alcotest.failf "truncation at %d read back" n
    | Error _ -> ()
  done;
  List.iter
    (fun bad ->
      match Row.of_json bad with
      | Ok _ -> Alcotest.failf "garbled input %S read back" bad
      | Error _ -> ())
    [
      "";
      "[]";
      "{\"rows\":{}}";
      "{\"rows\":[{\"group\":\"sched\"}]}";
      "{\"rows\":[{\"group\":\"sched\",\"name\":\"x\",\"metrics\":{\"a\":\"b\"}}]}";
      "{\"rows\":[{\"group\":1,\"name\":\"x\",\"metrics\":{}}]}";
      "{\"rows\":[]} trailing";
      "{\"rows\":[1e]}";
      "{\"rows\":[--1]}";
      "{\"rows\":[\"\\";
    ]

let prop_garbled =
  QCheck.Test.make ~name:"reader never raises" ~count:2000
    (Fuzz.arb_input ~tokens:[ "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "1e"; "-" ]
       (QCheck.Gen.return (Row.to_json (List.filteri (fun i _ -> i mod 30 = 0) baseline))))
    (fun s ->
      match Row.of_json s with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Gate                                                                 *)

let gate ?(baseline = baseline) rows = Gate.check Bench.Groups.all ~baseline rows

let set rows key metric v =
  List.map
    (fun r ->
      if Row.key r = key then
        {
          r with
          Row.metrics =
            List.map (fun (m, x) -> (m, if m = metric then v x else x)) r.Row.metrics;
        }
      else r)
    rows

let test_baseline_passes () =
  check Alcotest.bool "the baseline gates clean against itself" true (gate baseline)

let fails ?baseline what rows = check Alcotest.bool what false (gate ?baseline rows)

(* A floor is tested with the baseline lowered to just above it, so the
   ratio rule alone would pass. *)
let fails_floor what key floor =
  let base = set baseline key "speedup" (fun _ -> floor +. 0.05) in
  check Alcotest.bool (what ^ ": at the floor") true
    (gate ~baseline:base (set base key "speedup" (fun _ -> floor)));
  fails ~baseline:base what (set base key "speedup" (fun _ -> floor -. 0.01))

let test_doctored_rows_fail () =
  fails "sched speedup below 0.9x baseline"
    (set baseline ("sched", "surge", quick) "speedup" (fun x -> 0.85 *. x));
  fails "conn speedup below 0.75x baseline"
    (set baseline ("conn", "trace_binary", Some "full") "speedup" (fun x -> 0.7 *. x));
  fails_floor "probe_storm floor" ("sched", "probe_storm", quick) 1.25;
  fails_floor "JIT floor" ("dispatch", "ebpf_jit_vm", quick) 1.3;
  fails_floor "bitmap scheduler floor" ("dispatch", "sched_64", quick) 1.5;
  fails_floor "SoA churn floor" ("conn", "conn_open_close", quick) 1.3;
  fails_floor "long-stream bypass floor" ("splice", "proxy_vs_splice_long_stream", quick) 2.0;
  fails "fast_words = 1"
    (set baseline ("dispatch", "select_8", quick) "fast_words" (fun _ -> 1.0));
  fails "conn fast_words = 1"
    (set baseline ("conn", "sock_owner", Some "full") "fast_words" (fun _ -> 1.0));
  fails "splice fast_words = 1"
    (set baseline ("splice", "splice_redirect", quick) "fast_words" (fun _ -> 1.0));
  fails "completed off by one"
    (set baseline ("cluster", "d8w4", None) "completed" (fun x -> x +. 1.0));
  fails "chaos p99 doubled"
    (set baseline ("chaos", "hang/reuseport", None) "p99_ms" (fun x -> 2.0 *. x));
  fails "soak rss doubled"
    (set baseline ("conn", "device_soak", quick) "rss_kb" (fun x -> 2.0 *. x));
  fails "one invariant violation"
    (set baseline ("chaos", "none/hermes", None) "violations" (fun _ -> 1.0));
  fails "missing baseline entry"
    ~baseline:(List.filter (fun r -> Row.key r <> ("sched", "churn", quick)) baseline)
    baseline

let test_conditional_rules () =
  check Alcotest.bool "ebpf_jit_ast has no ratio gate" true
    (gate (set baseline ("dispatch", "ebpf_jit_ast", quick) "speedup" (fun _ -> 0.01)));
  check Alcotest.bool "cluster wall-clock is not gated" true
    (gate (set baseline ("cluster", "d100w2", None) "wall_s" (fun x -> 10.0 *. x)))

(* ------------------------------------------------------------------ *)
(* Coverage                                                             *)

(* Both ways: every row a run produces has a baseline row, and every
   baseline row is still produced by some run (no stale keys, such as
   a renamed scenario's old name). *)
let test_baseline_covers_every_row () =
  let produced =
    List.concat_map
      (fun g -> List.concat_map (fun quick -> Gate.keys g ~quick) [ true; false ])
      Bench.Groups.all
  in
  let show (group, name, size) =
    Printf.sprintf "%s %s %s" group name (Option.value size ~default:"-")
  in
  List.iter
    (fun key ->
      if not (List.exists (fun r -> Row.key r = key) baseline) then
        Alcotest.failf "BENCH.json has no row %s" (show key))
    produced;
  List.iter
    (fun r ->
      if not (List.mem (Row.key r) produced) then
        Alcotest.failf "BENCH.json row %s is produced by no run" (show (Row.key r)))
    baseline

let () =
  Alcotest.run "bench"
    [
      ( "json",
        [
          Alcotest.test_case "committed baseline round-trips" `Quick
            test_roundtrip_committed;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "damaged input is an error" `Quick test_damaged_input;
          QCheck_alcotest.to_alcotest prop_garbled;
        ] );
      ( "gate",
        [
          Alcotest.test_case "baseline passes" `Quick test_baseline_passes;
          Alcotest.test_case "doctored rows fail" `Quick test_doctored_rows_fail;
          Alcotest.test_case "conditional rules" `Quick test_conditional_rules;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "baseline covers every row" `Quick
            test_baseline_covers_every_row;
        ] );
    ]
