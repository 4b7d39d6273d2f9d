(* Tests for the workload library: profiles, the Table 3 cases, region
   models, the open-loop driver, surge generation, and trace
   record/replay. *)

let check = Alcotest.check
let ms = Engine.Sim_time.ms

(* ------------------------------------------------------------------ *)
(* Profile                                                              *)

let test_profile_scale_rate () =
  let p = Workload.Cases.profile Workload.Cases.Case1 ~workers:8 in
  let p2 = Workload.Profile.scale_rate p 2.0 in
  check (Alcotest.float 1e-6) "doubled" (p.Workload.Profile.cps *. 2.0)
    p2.Workload.Profile.cps;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Profile.scale_rate: factor must be positive") (fun () ->
      ignore (Workload.Profile.scale_rate p 0.0))

let test_profile_offered_load () =
  (* light profiles target roughly 45-55% of the device *)
  let rng = Engine.Rng.create 1 in
  List.iter
    (fun case ->
      let p = Workload.Cases.profile case ~workers:8 in
      let load = Workload.Profile.offered_load p (Engine.Rng.copy rng) in
      check Alcotest.bool
        (Workload.Cases.name case ^ " light load sane")
        true
        (load > 2.0 && load < 6.5))
    Workload.Cases.all

let test_profile_tenant_skew () =
  let p = Workload.Cases.profile Workload.Cases.Case1 ~workers:8 in
  let rng = Engine.Rng.create 2 in
  let pick = Workload.Profile.tenant_picker p ~tenants:8 rng in
  let counts = Array.make 8 0 in
  for _ = 1 to 10_000 do
    let t = pick () in
    counts.(t) <- counts.(t) + 1
  done;
  check Alcotest.bool "tenant 0 hottest" true
    (Array.for_all (fun c -> counts.(0) >= c) counts)

let test_profile_uniform_when_no_skew () =
  let p =
    { (Workload.Cases.profile Workload.Cases.Case1 ~workers:8) with
      Workload.Profile.tenant_skew = 0.0 }
  in
  let rng = Engine.Rng.create 3 in
  let pick = Workload.Profile.tenant_picker p ~tenants:4 rng in
  let counts = Array.make 4 0 in
  for _ = 1 to 20_000 do
    let t = pick () in
    counts.(t) <- counts.(t) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly uniform" true (abs (c - 5_000) < 500))
    counts

let test_profile_pick_op () =
  let p = Workload.Cases.profile Workload.Cases.Case4 ~workers:8 in
  let rng = Engine.Rng.create 4 in
  for _ = 1 to 100 do
    let op = Workload.Profile.pick_op p rng in
    check Alcotest.bool "op from mix" true
      (List.exists (fun (_, o) -> o = op) p.Workload.Profile.op_mix)
  done

(* ------------------------------------------------------------------ *)
(* Cases                                                                *)

let test_cases_classes () =
  check Alcotest.bool "case1 high cps" true
    (Workload.Cases.cps_class Workload.Cases.Case1 = `High);
  check Alcotest.bool "case3 low cps" true
    (Workload.Cases.cps_class Workload.Cases.Case3 = `Low);
  check Alcotest.bool "case2 high proc" true
    (Workload.Cases.processing_class Workload.Cases.Case2 = `High);
  check Alcotest.bool "case1 low proc" true
    (Workload.Cases.processing_class Workload.Cases.Case1 = `Low)

let test_cases_parameters_consistent () =
  (* the CPS axis must actually separate the high/low classes *)
  let cps c = (Workload.Cases.profile c ~workers:8).Workload.Profile.cps in
  check Alcotest.bool "case1 > case3" true
    (cps Workload.Cases.Case1 > (10.0 *. cps Workload.Cases.Case3));
  check Alcotest.bool "case2 > case4" true
    (cps Workload.Cases.Case2 > (10.0 *. cps Workload.Cases.Case4));
  (* and the processing axis separates too *)
  let rng = Engine.Rng.create 5 in
  let proc c =
    Workload.Profile.mean_processing_time
      (Workload.Cases.profile c ~workers:8)
      (Engine.Rng.copy rng)
  in
  check Alcotest.bool "case2 proc >> case1" true
    (proc Workload.Cases.Case2 > (3.0 *. proc Workload.Cases.Case1));
  check Alcotest.bool "case4 proc >> case3" true
    (proc Workload.Cases.Case4 > (10.0 *. proc Workload.Cases.Case3))

let test_cases_load_factors () =
  check (Alcotest.float 0.0) "light" 1.0 (Workload.Cases.load_factor Workload.Cases.Light);
  check (Alcotest.float 0.0) "heavy" 3.0 (Workload.Cases.load_factor Workload.Cases.Heavy);
  check Alcotest.int "three loads" 3 (List.length Workload.Cases.loads);
  check Alcotest.int "four cases" 4 (List.length Workload.Cases.all)

(* ------------------------------------------------------------------ *)
(* Regions                                                              *)

let test_regions_weights_sum () =
  Array.iter
    (fun (r : Workload.Regions.t) ->
      let total = Array.fold_left ( +. ) 0.0 r.case_weights in
      check Alcotest.bool (r.name ^ " weights sum to ~1") true
        (Float.abs (total -. 1.0) < 0.02))
    Workload.Regions.all

let test_regions_sample_distribution () =
  let rng = Engine.Rng.create 6 in
  let counts = Array.make 4 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Workload.Regions.sample_case Workload.Regions.region2 rng with
    | Workload.Cases.Case1 -> counts.(0) <- counts.(0) + 1
    | Case2 -> counts.(1) <- counts.(1) + 1
    | Case3 -> counts.(2) <- counts.(2) + 1
    | Case4 -> counts.(3) <- counts.(3) + 1
  done;
  (* Region2 is 82% case4 *)
  check Alcotest.bool "case4 dominates region2" true
    (float_of_int counts.(3) /. float_of_int n > 0.78)

let test_regions_table1_quantiles () =
  (* Region1 P50s must come out near the fitted targets *)
  let rng = Engine.Rng.create 7 in
  let xs =
    Array.init 50_000 (fun _ ->
        Engine.Dist.sample Workload.Regions.region1.request_size rng)
  in
  let p50 = Stats.Summary.percentile xs 50.0 in
  check Alcotest.bool "size p50 ~ 243" true (Float.abs (p50 -. 243.0) < 20.0)

let test_regions_mixture_profile () =
  let rng = Engine.Rng.create 8 in
  let profiles =
    Workload.Regions.mixture_profile Workload.Regions.region1 ~workers:8 rng
  in
  check Alcotest.int "all four components" 4 (List.length profiles);
  List.iter
    (fun p ->
      check Alcotest.bool "scaled cps positive" true (p.Workload.Profile.cps > 0.0))
    profiles

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

let test_driver_generates_and_completes () =
  let device, rng =
    Experiments.Common.make_device ~workers:4 ~tenants:4 ~mode:Lb.Device.Reuseport ()
  in
  let profile =
    Workload.Profile.scale_rate
      (Workload.Cases.profile Workload.Cases.Case1 ~workers:4)
      0.2
  in
  let report =
    Workload.Driver.run ~device ~profile ~rng ~warmup:(ms 200) ~measure:(ms 800) ()
  in
  check Alcotest.bool "completed requests" true (report.Workload.Driver.completed > 50);
  check Alcotest.bool "throughput positive" true (report.throughput_krps > 0.0);
  check Alcotest.bool "latency sane" true
    (report.avg_ms > 0.0 && report.avg_ms < 100.0);
  check Alcotest.bool "p50 <= p99" true (report.p50_ms <= report.p99_ms);
  check Alcotest.int "row width" 4 (List.length (Workload.Driver.report_row report))

let test_driver_stop () =
  let device, rng =
    Experiments.Common.make_device ~workers:2 ~tenants:2 ~mode:Lb.Device.Reuseport ()
  in
  let sim = Lb.Device.sim device in
  Lb.Device.start device;
  let profile =
    Workload.Profile.scale_rate
      (Workload.Cases.profile Workload.Cases.Case1 ~workers:2)
      0.2
  in
  let driver = Workload.Driver.start ~device ~profile ~rng () in
  Engine.Sim.run_until sim ~limit:(ms 200);
  Workload.Driver.stop driver;
  let opened = Workload.Driver.conns_opened driver in
  Engine.Sim.run_until sim ~limit:(ms 600);
  check Alcotest.int "no arrivals after stop" opened
    (Workload.Driver.conns_opened driver);
  check Alcotest.bool "sent counted" true (Workload.Driver.requests_sent driver > 0)

(* ------------------------------------------------------------------ *)
(* Surge                                                                *)

let test_surge_establish_and_burst () =
  let device, rng =
    Experiments.Common.make_device ~workers:4 ~tenants:2 ~mode:Lb.Device.Reuseport ()
  in
  let sim = Lb.Device.sim device in
  Lb.Device.start device;
  let surge = Workload.Surge.establish ~device ~tenant:0 ~count:50 ~over:(ms 100) in
  Engine.Sim.run_until sim ~limit:(ms 300);
  check Alcotest.int "all established" 50 (Workload.Surge.established_count surge);
  let before = Lb.Device.completed device in
  Workload.Surge.burst surge ~rng ~requests_per_conn:2
    ~cost:(Engine.Sim_time.us 100) ~size:10 ~jitter:(ms 5);
  Engine.Sim.run_until sim ~limit:(ms 600);
  check Alcotest.int "all burst requests served" (before + 100)
    (Lb.Device.completed device);
  Workload.Surge.teardown surge;
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1);
  check Alcotest.int "all closed" 0
    (Array.fold_left ( + ) 0 (Lb.Device.conns_per_worker device))

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)

let small_profile =
  Workload.Profile.scale_rate (Workload.Cases.profile Workload.Cases.Case1 ~workers:2) 0.05

let test_replay_record_deterministic () =
  let record seed =
    Workload.Replay.record ~profile:small_profile ~tenants:2
      ~duration:(Engine.Sim_time.sec 1) ~rng:(Engine.Rng.create seed)
  in
  let a = record 42 and b = record 42 in
  check Alcotest.int "same length" (Workload.Replay.length a) (Workload.Replay.length b);
  check Alcotest.int "same conns" (Workload.Replay.connections a)
    (Workload.Replay.connections b);
  check Alcotest.bool "non-empty" true (Workload.Replay.length a > 0)

let test_replay_ops_sorted () =
  let trace =
    Workload.Replay.record ~profile:small_profile ~tenants:2
      ~duration:(Engine.Sim_time.sec 1) ~rng:(Engine.Rng.create 1)
  in
  let at = function
    | Workload.Replay.Connect { at; _ }
    | Workload.Replay.Send { at; _ }
    | Workload.Replay.Close { at; _ } -> at
  in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      check Alcotest.bool "sorted" true (at a <= at b);
      walk rest
    | _ -> ()
  in
  walk (Workload.Replay.ops trace)

let test_replay_executes () =
  let trace =
    Workload.Replay.record ~profile:small_profile ~tenants:2
      ~duration:(Engine.Sim_time.sec 2) ~rng:(Engine.Rng.create 2)
  in
  let run rate =
    let device, _ =
      Experiments.Common.make_device ~workers:2 ~tenants:2 ~mode:Lb.Device.Reuseport ()
    in
    let sim = Lb.Device.sim device in
    Lb.Device.start device;
    Workload.Replay.replay trace ~device ~rate;
    Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 3);
    Lb.Device.completed device
  in
  let at1 = run 1.0 in
  let at2 = run 2.0 in
  check Alcotest.bool "requests completed" true (at1 > 0);
  (* rate scaling delivers the same requests (compressed in time) *)
  check Alcotest.int "same total at higher rate" at1 at2

(* The replay as it was before it streamed: every op scheduled up front
   at set-up.  Kept here only as the reference the streamed
   [Workload.Replay.replay] must match event for event. *)
module Eager_replay = struct
  open Workload.Replay

  type conn_state = {
    mutable conn : Lb.Conn.t option;
    mutable buffered : Lb.Request.t list;
    mutable want_close : bool;
    mutable dead : bool;
  }

  let replay trace ~device ~rate =
    let sim = Lb.Device.sim device in
    let base = Engine.Sim.now sim in
    let states = Hashtbl.create 1024 in
    let state_of key =
      match Hashtbl.find_opt states key with
      | Some s -> s
      | None ->
        let s = { conn = None; buffered = []; want_close = false; dead = false } in
        Hashtbl.replace states key s;
        s
    in
    let flush s =
      match s.conn with
      | None -> ()
      | Some conn ->
        List.iter (fun req -> ignore (Lb.Device.send device conn req)) (List.rev s.buffered);
        s.buffered <- [];
        if s.want_close then Lb.Device.close_conn device conn
    in
    let scaled at = base + int_of_float (float_of_int at /. rate) in
    let at_of = function Connect { at; _ } | Send { at; _ } | Close { at; _ } -> at in
    List.iter
      (fun op ->
        ignore
          (Engine.Sim.schedule sim ~at:(scaled (at_of op)) (fun () ->
               match op with
               | Connect { key; tenant; _ } ->
                 let s = state_of key in
                 let events =
                   {
                     Lb.Device.null_conn_events with
                     established =
                       (fun conn ->
                         s.conn <- Some conn;
                         flush s);
                     reset = (fun _ -> s.dead <- true);
                     dispatch_failed = (fun () -> s.dead <- true);
                   }
                 in
                 Lb.Device.connect device ~tenant ~events
               | Send { key; op_class; size; cost; _ } -> (
                 let s = state_of key in
                 if not s.dead then
                   let req =
                     Lb.Request.make ~id:(Lb.Device.fresh_id device) ~op:op_class ~size
                       ~cost ~tenant_id:0
                   in
                   match s.conn with
                   | Some conn ->
                     ignore
                       (Lb.Device.send device conn
                          { req with Lb.Request.tenant_id = conn.Lb.Conn.tenant_id })
                   | None -> s.buffered <- req :: s.buffered)
               | Close { key; _ } -> (
                 let s = state_of key in
                 match s.conn with
                 | Some conn when not s.dead -> Lb.Device.close_conn device conn
                 | _ -> s.want_close <- true))))
      (ops trace)
end

(* Streaming keeps one replay event pending instead of the whole
   script, and changes nothing else: completions, the latency
   histogram and the fired-event count equal the eager reference's on
   a Hermes device, at 1x and at the paper's 2.5x. *)
let test_replay_streams_like_eager () =
  let workers = 4 in
  let trace =
    Workload.Replay.record
      ~profile:(Workload.Profile.scale_rate (Workload.Cases.profile Workload.Cases.Case1 ~workers) 0.1)
      ~tenants:2 ~duration:(Engine.Sim_time.sec 1) ~rng:(Engine.Rng.create 11)
  in
  let run rate replay =
    let device, _ =
      Experiments.Common.make_device ~workers ~tenants:2
        ~mode:Experiments.Common.hermes_default ()
    in
    let sim = Lb.Device.sim device in
    Lb.Device.start device;
    replay trace ~device ~rate;
    let pending = Engine.Sim.pending_count sim in
    Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 2);
    let h = Lb.Device.latency_hist device in
    ( pending,
      ( Lb.Device.completed device,
        Engine.Sim.events_fired sim,
        Stats.Histogram.count h,
        Stats.Histogram.total h,
        List.map (Stats.Histogram.percentile h) [ 50.0; 99.0; 100.0 ] ) )
  in
  check Alcotest.bool "script is long" true (Workload.Replay.length trace > 100);
  List.iter
    (fun rate ->
      let pending, streamed = run rate Workload.Replay.replay in
      let eager_pending, eager = run rate Eager_replay.replay in
      check Alcotest.bool
        (Printf.sprintf "pending %d <= workers + 2" pending)
        true (pending <= workers + 2);
      check Alcotest.bool "eager pends the script" true
        (eager_pending >= Workload.Replay.length trace);
      let completed, fired, n, total, pcts = streamed in
      let e_completed, e_fired, e_n, e_total, e_pcts = eager in
      check Alcotest.bool "requests completed" true (completed > 0);
      check Alcotest.int "completed" e_completed completed;
      check Alcotest.int "events fired" e_fired fired;
      check Alcotest.int "latency count" e_n n;
      check Alcotest.(float 0.0) "latency total" e_total total;
      check Alcotest.(list (float 0.0)) "latency p50/p99/max" e_pcts pcts)
    [ 1.0; 2.5 ]

let test_replay_rejects_past () =
  let trace =
    match Workload.Replay.of_string "# hermes-trace v1\nconns 1\nC -5 1 0\n" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let device, _ =
    Experiments.Common.make_device ~workers:2 ~tenants:1 ~mode:Lb.Device.Reuseport ()
  in
  match Workload.Replay.replay trace ~device ~rate:1.0 with
  | () -> Alcotest.fail "an op before the clock must be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "workload"
    [
      ( "profile",
        [
          Alcotest.test_case "scale rate" `Quick test_profile_scale_rate;
          Alcotest.test_case "offered load" `Quick test_profile_offered_load;
          Alcotest.test_case "tenant skew" `Quick test_profile_tenant_skew;
          Alcotest.test_case "uniform tenants" `Quick test_profile_uniform_when_no_skew;
          Alcotest.test_case "pick op" `Quick test_profile_pick_op;
        ] );
      ( "cases",
        [
          Alcotest.test_case "classes" `Quick test_cases_classes;
          Alcotest.test_case "parameters consistent" `Quick test_cases_parameters_consistent;
          Alcotest.test_case "load factors" `Quick test_cases_load_factors;
        ] );
      ( "regions",
        [
          Alcotest.test_case "weights sum" `Quick test_regions_weights_sum;
          Alcotest.test_case "sample distribution" `Quick test_regions_sample_distribution;
          Alcotest.test_case "table1 quantiles" `Quick test_regions_table1_quantiles;
          Alcotest.test_case "mixture profile" `Quick test_regions_mixture_profile;
        ] );
      ( "driver",
        [
          Alcotest.test_case "generates and completes" `Quick test_driver_generates_and_completes;
          Alcotest.test_case "stop" `Quick test_driver_stop;
        ] );
      ( "surge",
        [ Alcotest.test_case "establish and burst" `Quick test_surge_establish_and_burst ] );
      ( "replay",
        [
          Alcotest.test_case "record deterministic" `Quick test_replay_record_deterministic;
          Alcotest.test_case "ops sorted" `Quick test_replay_ops_sorted;
          Alcotest.test_case "executes" `Quick test_replay_executes;
          Alcotest.test_case "streams like eager" `Quick test_replay_streams_like_eager;
          Alcotest.test_case "rejects ops in the past" `Quick test_replay_rejects_past;
        ] );
    ]
