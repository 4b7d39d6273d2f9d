(* Tests for the engine library: deterministic RNG, distributions,
   simulated time, and the discrete-event simulator. *)

let check = Alcotest.check
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_determinism () =
  let a = Engine.Rng.create 42 and b = Engine.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Engine.Rng.next_int64 a)
      (Engine.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Engine.Rng.create 1 and b = Engine.Rng.create 2 in
  let differ = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Engine.Rng.next_int64 a) (Engine.Rng.next_int64 b))
    then differ := true
  done;
  check Alcotest.bool "streams differ" true !differ

let test_rng_copy_independent () =
  let a = Engine.Rng.create 7 in
  let b = Engine.Rng.copy a in
  let xa = Engine.Rng.next_int64 a in
  let xb = Engine.Rng.next_int64 b in
  check Alcotest.int64 "copy continues identically" xa xb;
  ignore (Engine.Rng.next_int64 a);
  (* b lags behind a now; next outputs differ in general *)
  ignore (Engine.Rng.next_int64 b)

let test_rng_split_differs () =
  let a = Engine.Rng.create 7 in
  let b = Engine.Rng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Int64.equal (Engine.Rng.next_int64 a) (Engine.Rng.next_int64 b) then
      incr same
  done;
  check Alcotest.bool "split stream is distinct" true (!same < 5)

let test_rng_int_bounds () =
  let rng = Engine.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Engine.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Engine.Rng.int rng 0))

let test_rng_unit_float_range () =
  let rng = Engine.Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.unit_float rng in
    check Alcotest.bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  (* chi-square-ish sanity: 10 buckets, 50k draws, each within 20% of
     expected. *)
  let rng = Engine.Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let b = Engine.Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket near expected" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let test_rng_shuffle_permutation () =
  let rng = Engine.Rng.create 13 in
  let arr = Array.init 50 (fun i -> i) in
  Engine.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick () =
  let rng = Engine.Rng.create 17 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    check Alcotest.bool "picked member" true (Array.mem (Engine.Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Engine.Rng.pick rng [||]))

(* ------------------------------------------------------------------ *)
(* Dist                                                                 *)

let sample_mean dist seed n =
  let rng = Engine.Rng.create seed in
  Engine.Dist.mean_of dist rng n

let test_dist_constant () =
  let rng = Engine.Rng.create 1 in
  checkf "constant" 4.5 (Engine.Dist.sample (Engine.Dist.constant 4.5) rng)

let test_dist_exponential_mean () =
  let m = sample_mean (Engine.Dist.exponential ~mean:3.0) 2 100_000 in
  check Alcotest.bool "mean close" true (Float.abs (m -. 3.0) < 0.1)

let test_dist_uniform_bounds () =
  let rng = Engine.Rng.create 3 in
  let d = Engine.Dist.uniform ~lo:2.0 ~hi:5.0 in
  for _ = 1 to 1000 do
    let v = Engine.Dist.sample d rng in
    check Alcotest.bool "in [2,5)" true (v >= 2.0 && v < 5.0)
  done

let test_dist_pareto_support () =
  let rng = Engine.Rng.create 4 in
  let d = Engine.Dist.pareto ~shape:2.0 ~scale:1.5 in
  for _ = 1 to 1000 do
    check Alcotest.bool ">= scale" true (Engine.Dist.sample d rng >= 1.5)
  done

let test_dist_bounded_pareto () =
  let rng = Engine.Rng.create 5 in
  let d = Engine.Dist.bounded_pareto ~shape:1.2 ~lo:1.0 ~hi:100.0 in
  for _ = 1 to 5000 do
    let v = Engine.Dist.sample d rng in
    check Alcotest.bool "in bounds" true (v >= 0.999 && v <= 100.001)
  done

let quantile_of dist seed n p =
  let rng = Engine.Rng.create seed in
  let xs = Array.init n (fun _ -> Engine.Dist.sample dist rng) in
  Stats.Summary.percentile xs p

let test_dist_lognormal_quantiles () =
  let d = Engine.Dist.lognormal_of_quantiles ~p50:10.0 ~p99:200.0 in
  let p50 = quantile_of d 6 100_000 50.0 in
  let p99 = quantile_of d 6 100_000 99.0 in
  check Alcotest.bool "p50 fit" true (Float.abs (p50 -. 10.0) /. 10.0 < 0.05);
  check Alcotest.bool "p99 fit" true (Float.abs (p99 -. 200.0) /. 200.0 < 0.15)

let test_dist_lognormal_invalid () =
  Alcotest.check_raises "bad quantiles"
    (Invalid_argument "Dist.lognormal_of_quantiles: need 0 < p50 < p99")
    (fun () -> ignore (Engine.Dist.lognormal_of_quantiles ~p50:5.0 ~p99:5.0))

let test_dist_mixture_weights () =
  (* weight 3:1 between constants 0 and 1 -> mean ~ 0.25 *)
  let d =
    Engine.Dist.mixture
      [ (3.0, Engine.Dist.constant 0.0); (1.0, Engine.Dist.constant 1.0) ]
  in
  let m = sample_mean d 7 100_000 in
  check Alcotest.bool "mixture mean" true (Float.abs (m -. 0.25) < 0.01)

let test_dist_mixture_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.mixture: empty")
    (fun () -> ignore (Engine.Dist.mixture []))

let test_dist_shifted_scaled () =
  let rng = Engine.Rng.create 8 in
  let d = Engine.Dist.shifted 10.0 (Engine.Dist.constant 5.0) in
  checkf "shifted" 15.0 (Engine.Dist.sample d rng);
  let d = Engine.Dist.scaled 3.0 (Engine.Dist.constant 5.0) in
  checkf "scaled" 15.0 (Engine.Dist.sample d rng)

let test_zipf_probabilities () =
  let z = Engine.Dist.Zipf.create ~n:4 ~s:1.0 in
  (* weights proportional to 1, 1/2, 1/3, 1/4 *)
  let total = 1.0 +. 0.5 +. (1.0 /. 3.0) +. 0.25 in
  checkf "p0" (1.0 /. total) (Engine.Dist.Zipf.probability z 0);
  checkf "p3" (0.25 /. total) (Engine.Dist.Zipf.probability z 3)

let test_zipf_sampling () =
  let z = Engine.Dist.Zipf.create ~n:10 ~s:1.2 in
  let rng = Engine.Rng.create 9 in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Engine.Dist.Zipf.sample z rng in
    check Alcotest.bool "rank in range" true (k >= 0 && k < 10);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 should be the most frequent *)
  Array.iteri
    (fun i c -> if i > 0 then check Alcotest.bool "monotone-ish" true (counts.(0) >= c))
    counts

let test_categorical () =
  let rng = Engine.Rng.create 10 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Engine.Dist.categorical [| 1.0; 2.0; 1.0 |] rng in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.bool "middle is heaviest" true
    (counts.(1) > counts.(0) && counts.(1) > counts.(2));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Dist.categorical: zero total weight") (fun () ->
      ignore (Engine.Dist.categorical [| 0.0; 0.0 |] rng))

(* ------------------------------------------------------------------ *)
(* Sim_time                                                             *)

let test_time_units () =
  check Alcotest.int "us" 1_000 (Engine.Sim_time.us 1);
  check Alcotest.int "ms" 1_000_000 (Engine.Sim_time.ms 1);
  check Alcotest.int "sec" 1_000_000_000 (Engine.Sim_time.sec 1);
  check Alcotest.int "minutes" (60 * 1_000_000_000) (Engine.Sim_time.minutes 1);
  check Alcotest.int "hours" (3600 * 1_000_000_000) (Engine.Sim_time.hours 1)

let test_time_float_conversions () =
  checkf "to_sec_f" 1.5 (Engine.Sim_time.to_sec_f (Engine.Sim_time.ms 1500));
  check Alcotest.int "of_sec_f" (Engine.Sim_time.ms 1500)
    (Engine.Sim_time.of_sec_f 1.5);
  check Alcotest.int "of_ms_f rounds" 1_500_000 (Engine.Sim_time.of_ms_f 1.5);
  check Alcotest.int "of_us_f" 2_500 (Engine.Sim_time.of_us_f 2.5)

let test_time_pp () =
  check Alcotest.string "ns" "5ns" (Engine.Sim_time.to_string 5);
  check Alcotest.string "us" "2.50us" (Engine.Sim_time.to_string 2_500);
  check Alcotest.string "ms" "3.00ms" (Engine.Sim_time.to_string 3_000_000);
  check Alcotest.string "s" "4.000s" (Engine.Sim_time.to_string 4_000_000_000)

(* ------------------------------------------------------------------ *)
(* Sim                                                                  *)

let test_sim_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.Sim.schedule sim ~at:30 (note "c"));
  ignore (Engine.Sim.schedule sim ~at:10 (note "a"));
  ignore (Engine.Sim.schedule sim ~at:20 (note "b"));
  Engine.Sim.run sim;
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_tie_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.Sim.schedule sim ~at:5 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  check Alcotest.(list int) "ties FIFO" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_clock_advances () =
  let sim = Engine.Sim.create () in
  let seen = ref (-1) in
  ignore (Engine.Sim.schedule sim ~at:123 (fun () -> seen := Engine.Sim.now sim));
  Engine.Sim.run sim;
  check Alcotest.int "now at event time" 123 !seen

let test_sim_schedule_in_past () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule sim ~at:100 (fun () -> ()));
  Engine.Sim.run sim;
  check Alcotest.int "clock" 100 (Engine.Sim.now sim);
  (try
     ignore (Engine.Sim.schedule sim ~at:50 (fun () -> ()));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      ignore (Engine.Sim.schedule_after sim ~delay:(-1) (fun () -> ())))

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule sim ~at:10 (fun () -> fired := true) in
  check Alcotest.bool "pending" true (Engine.Sim.is_pending sim h);
  Engine.Sim.cancel sim h;
  check Alcotest.bool "not pending" false (Engine.Sim.is_pending sim h);
  Engine.Sim.run sim;
  check Alcotest.bool "not fired" false !fired

let test_sim_run_until () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.Sim.schedule sim ~at:(i * 10) (fun () -> incr count))
  done;
  Engine.Sim.run_until sim ~limit:55;
  check Alcotest.int "five fired" 5 !count;
  check Alcotest.int "clock at limit" 55 (Engine.Sim.now sim);
  Engine.Sim.run_until sim ~limit:200;
  check Alcotest.int "rest fired" 10 !count

let test_sim_recursive_scheduling () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100 then ignore (Engine.Sim.schedule_after sim ~delay:5 tick)
  in
  ignore (Engine.Sim.schedule sim ~at:0 tick);
  Engine.Sim.run sim;
  check Alcotest.int "all ticks" 100 !count;
  check Alcotest.int "events_fired" 100 (Engine.Sim.events_fired sim)

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.Sim.schedule sim ~at:i (fun () ->
           incr count;
           if !count = 3 then Engine.Sim.stop sim))
  done;
  Engine.Sim.run sim;
  check Alcotest.int "stopped early" 3 !count

let test_sim_pending_count () =
  let sim = Engine.Sim.create () in
  let h1 = Engine.Sim.schedule sim ~at:10 (fun () -> ()) in
  ignore (Engine.Sim.schedule sim ~at:20 (fun () -> ()));
  check Alcotest.int "two pending" 2 (Engine.Sim.pending_count sim);
  Engine.Sim.cancel sim h1;
  check Alcotest.int "one pending" 1 (Engine.Sim.pending_count sim)

(* ------------------------------------------------------------------ *)
(* Timing wheel: cancellation-leak fixes and edge cases                 *)

(* The heap leaked the action closure of a cancelled event until its
   slot drained; the wheel must release it at [cancel] time. *)
let test_wheel_cancel_releases_closure () =
  let sim = Engine.Sim.create () in
  let w = Weak.create 1 in
  let h =
    (* Built in a helper so no stack slot keeps [payload] alive. *)
    let make () =
      let payload = Bytes.create 4096 in
      Weak.set w 0 (Some payload);
      Engine.Sim.schedule sim ~at:1_000 (fun () -> ignore (Bytes.length payload))
    in
    make ()
  in
  check Alcotest.bool "held while pending" true (Weak.check w 0);
  Engine.Sim.cancel sim h;
  Gc.full_major ();
  check Alcotest.bool "released on cancel" false (Weak.check w 0)

let test_wheel_tie_across_levels () =
  (* Two events at the same far timestamp, one scheduled at t=0 (it
     starts several wheel levels up) and one scheduled mid-run (it
     starts lower): after cascading into the same level-0 slot they
     must still fire in seq order. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let t = 1_000_000 in
  ignore (Engine.Sim.schedule sim ~at:t (fun () -> log := "early" :: !log));
  ignore
    (Engine.Sim.schedule sim ~at:500 (fun () ->
         ignore (Engine.Sim.schedule sim ~at:t (fun () -> log := "late" :: !log))));
  Engine.Sim.run sim;
  check Alcotest.(list string) "seq order at equal time" [ "early"; "late" ]
    (List.rev !log)

let test_wheel_run_until_cancelled_head () =
  (* A cancelled event heading the queue must not let run_until fire a
     live event beyond its limit (the old heap had this bug). *)
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule sim ~at:10 (fun () -> ()) in
  Engine.Sim.cancel sim h;
  ignore (Engine.Sim.schedule sim ~at:100 (fun () -> fired := true));
  Engine.Sim.run_until sim ~limit:55;
  check Alcotest.bool "no overshoot past limit" false !fired;
  check Alcotest.int "clock at limit" 55 (Engine.Sim.now sim);
  check Alcotest.int "still pending" 1 (Engine.Sim.pending_count sim);
  Engine.Sim.run sim;
  check Alcotest.bool "fires after" true !fired

let test_wheel_far_future_spill () =
  (* Beyond the wheel horizon (2^50 ns ≈ 13 days) entries live on the
     spill list; ordering and cancellation must still hold. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let far = Engine.Sim_time.hours 400 in
  let h = Engine.Sim.schedule sim ~at:(far + 5) (fun () -> log := 2 :: !log) in
  ignore (Engine.Sim.schedule sim ~at:far (fun () -> log := 1 :: !log));
  ignore (Engine.Sim.schedule sim ~at:(far + 5) (fun () -> log := 3 :: !log));
  ignore (Engine.Sim.schedule sim ~at:7 (fun () -> log := 0 :: !log));
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  check Alcotest.(list int) "order across the spill" [ 0; 1; 3 ] (List.rev !log);
  check Alcotest.int "clock at last event" (far + 5) (Engine.Sim.now sim)

let test_wheel_churn_bounded () =
  (* Cancellation churn must neither distort [pending_count] nor let
     tombstones accumulate: compaction keeps physical occupancy within
     a small constant once everything is cancelled. *)
  let sim = Engine.Sim.create () in
  let live_fired = ref 0 in
  for round = 1 to 50 do
    let handles =
      Array.init 2000 (fun i ->
          Engine.Sim.schedule_after sim ~delay:(1000 + i) (fun () -> ()))
    in
    ignore (Engine.Sim.schedule_after sim ~delay:10 (fun () -> incr live_fired));
    Array.iter (fun h -> Engine.Sim.cancel sim h) handles;
    check Alcotest.int "pending counts only live" 1 (Engine.Sim.pending_count sim);
    Engine.Sim.run_until sim ~limit:(Engine.Sim.now sim + 20);
    check Alcotest.int "live event fired" round !live_fired;
    check Alcotest.int "none left pending" 0 (Engine.Sim.pending_count sim);
    check Alcotest.bool "occupancy bounded" true (Engine.Sim.occupancy sim <= 128)
  done

(* ------------------------------------------------------------------ *)
(* Differential: the wheel against the retired binary heap             *)

type dop =
  | DSched of int * int (* at (relative to now), fanout selector *)
  | DCancel of int (* index into the handles issued so far *)
  | DUntil of int (* run_until target *)

let dop_print = function
  | DSched (at, f) -> Printf.sprintf "DSched(%d,%d)" at f
  | DCancel i -> Printf.sprintf "DCancel %d" i
  | DUntil l -> Printf.sprintf "DUntil %d" l

(* Interpret a program against either engine, producing a full
   observation: every firing (time, id, depth), every run_until
   checkpoint (now, pending_count), plus the final totals. *)
module Replay (S : sig
  type t
  type handle

  val create : unit -> t
  val now : t -> int
  val schedule : t -> at:int -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val pending_count : t -> int
  val run_until : t -> limit:int -> unit
  val events_fired : t -> int
end) =
struct
  let run prog =
    let sim = S.create () in
    let log = ref [] in
    let handles = ref [] in
    let n_handles = ref 0 in
    let next_id = ref 0 in
    List.iter
      (fun op ->
        match op with
        | DSched (at, fanout) ->
          let at = S.now sim + at in
          let id = !next_id in
          incr next_id;
          (* Fanout: some actions re-schedule at the *same* tick,
             exercising same-time insertion during extraction. *)
          let rec action depth () =
            log := (S.now sim, id, depth) :: !log;
            if depth > 0 && (id + depth) mod 3 = 0 then
              ignore (S.schedule sim ~at:(S.now sim) (action (depth - 1)))
          in
          let h = S.schedule sim ~at (action (fanout mod 4)) in
          handles := h :: !handles;
          incr n_handles
        | DCancel i ->
          if !n_handles > 0 then
            S.cancel sim (List.nth !handles (i mod !n_handles))
        | DUntil lim ->
          let lim = max lim (S.now sim) in
          S.run_until sim ~limit:lim;
          log := (S.now sim, -1, S.pending_count sim) :: !log)
      prog;
    S.run_until sim ~limit:10_000_000;
    (List.rev !log, S.events_fired sim, S.now sim)
end

module Wheel_replay = Replay (Engine.Sim)
module Heap_replay = Replay (Engine.Ref_heap)

(* [Sim.next_time_lower_bound], read at every [DUntil] checkpoint, must
   not exceed the time of the next event to fire.  Events scheduled
   after the checkpoint may legitimately fire earlier than the bound,
   so the floor the next firing is held to is the bound lowered by
   every later schedule time. *)
let lower_bound_holds prog =
  let module S = Engine.Sim in
  let sim = S.create () in
  let floor = ref min_int in (* [min_int]: no checkpoint armed *)
  let ok = ref true in
  let handles = ref [] in
  let n_handles = ref 0 in
  let fired () =
    if S.now sim < !floor then ok := false;
    floor := min_int
  in
  List.iter
    (function
      | DSched (at, _) ->
        let at = S.now sim + at in
        if !floor <> min_int then floor := min !floor at;
        handles := S.schedule sim ~at fired :: !handles;
        incr n_handles
      | DCancel i ->
        if !n_handles > 0 then S.cancel sim (List.nth !handles (i mod !n_handles))
      | DUntil lim ->
        S.run_until sim ~limit:(max lim (S.now sim));
        floor := S.next_time_lower_bound sim;
        (* only tombstones can hold the bound below [max_int] *)
        if S.occupancy sim = 0 && !floor <> max_int then ok := false)
    prog;
  S.run_until sim ~limit:10_000_000;
  !ok

let prop_wheel_matches_heap =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (frequency
           [
             (5, map2 (fun a f -> DSched (a, f)) (int_bound 2000) (int_bound 7));
             (2, map (fun i -> DCancel i) (int_bound 100));
             (2, map (fun l -> DUntil l) (int_bound 3000));
           ]))
  in
  let arb =
    QCheck.make gen ~print:(fun p -> String.concat "; " (List.map dop_print p))
  in
  QCheck.Test.make ~name:"wheel matches heap on random programs" ~count:500 arb
    (fun prog ->
      let wl, wf, wn = Wheel_replay.run prog in
      let hl, hf, hn = Heap_replay.run prog in
      wl = hl && wf = hf && wn = hn && lower_bound_holds prog)

(* Property: events always fire in non-decreasing time order, whatever
   the scheduling pattern. *)
let prop_sim_monotone =
  QCheck.Test.make ~name:"sim fires in time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let sim = Engine.Sim.create () in
      let last = ref (-1) in
      let ok = ref true in
      List.iter
        (fun at ->
          ignore
            (Engine.Sim.schedule sim ~at (fun () ->
                 if Engine.Sim.now sim < !last then ok := false;
                 last := Engine.Sim.now sim)))
        times;
      Engine.Sim.run sim;
      !ok)

(* ------------------------------------------------------------------ *)
(* Coordinator rounds: the idle-member fast path                        *)

(* An idle member (its next event lies past the horizon) is advanced
   without entering its recorder context.  Its simulator clock and the
   recorder clock seen inside its context must match a twin shard run
   the long way, [Sim.run_until] under [Shard.with_context]; a member
   with an event exactly at the horizon is busy and fires it in the
   same round.  Covered with and without an ambient sink and per-shard
   rings. *)
let check_idle_round ~ambient ~trace_capacity =
  let module C = Engine.Coordinator in
  let module Sh = Engine.Shard in
  let module S = Engine.Sim in
  let horizon = 5_000 in
  let run () =
    let control = Sh.control ~sim:(S.create ()) in
    let coord = C.create ~control in
    let idle = Sh.create ~id:1 ?trace_capacity () in
    let twin = Sh.create ~id:9 ?trace_capacity () in
    let far = ref 0 in
    List.iter
      (fun sh ->
        ignore (S.schedule (Sh.sim sh) ~at:(3 * horizon) (fun () -> incr far)))
      [ idle; twin ];
    let at_horizon = Array.make 2 (-1) in
    let busy =
      List.init 2 (fun i ->
          let sh = Sh.create ~id:(2 + i) ?trace_capacity () in
          ignore
            (S.schedule (Sh.sim sh) ~at:horizon (fun () ->
                 at_horizon.(i) <- S.now (Sh.sim sh)));
          sh)
    in
    List.iter (C.add coord) (idle :: busy);
    C.advance coord ~horizon;
    Sh.with_context twin (fun () -> S.run_until (Sh.sim twin) ~limit:horizon);
    let label what =
      Printf.sprintf "ambient=%b ring=%b: %s" ambient (trace_capacity <> None) what
    in
    check Alcotest.int (label "idle sim clock at horizon") horizon
      (S.now (Sh.sim idle));
    check Alcotest.int (label "idle recorder clock = run_until's")
      (Sh.with_context twin Trace.now)
      (Sh.with_context idle Trace.now);
    check Alcotest.(array int) (label "horizon events fired in the round")
      [| horizon; horizon |] at_horizon;
    check Alcotest.int (label "far event still pending") 1
      (S.pending_count (Sh.sim idle));
    C.advance coord ~horizon:(3 * horizon);
    check Alcotest.int (label "far event fires when due") 1 !far
  in
  if ambient then Trace.with_sink { Trace.write = ignore; close = ignore } run
  else run ()

let test_coordinator_idle_fast_path () =
  List.iter
    (fun ambient ->
      List.iter
        (fun trace_capacity -> check_idle_round ~ambient ~trace_capacity)
        [ None; Some 16 ])
    [ false; true ]

let () =
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_differs;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "pareto support" `Quick test_dist_pareto_support;
          Alcotest.test_case "bounded pareto" `Quick test_dist_bounded_pareto;
          Alcotest.test_case "lognormal quantile fit" `Quick test_dist_lognormal_quantiles;
          Alcotest.test_case "lognormal invalid" `Quick test_dist_lognormal_invalid;
          Alcotest.test_case "mixture weights" `Quick test_dist_mixture_weights;
          Alcotest.test_case "mixture invalid" `Quick test_dist_mixture_invalid;
          Alcotest.test_case "shifted/scaled" `Quick test_dist_shifted_scaled;
          Alcotest.test_case "zipf probabilities" `Quick test_zipf_probabilities;
          Alcotest.test_case "zipf sampling" `Quick test_zipf_sampling;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "sim_time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "float conversions" `Quick test_time_float_conversions;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "tie FIFO" `Quick test_sim_tie_fifo;
          Alcotest.test_case "clock" `Quick test_sim_clock_advances;
          Alcotest.test_case "schedule in past" `Quick test_sim_schedule_in_past;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "recursive scheduling" `Quick test_sim_recursive_scheduling;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "pending count" `Quick test_sim_pending_count;
          QCheck_alcotest.to_alcotest prop_sim_monotone;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "cancel releases closure" `Quick
            test_wheel_cancel_releases_closure;
          Alcotest.test_case "tie across levels" `Quick test_wheel_tie_across_levels;
          Alcotest.test_case "run_until cancelled head" `Quick
            test_wheel_run_until_cancelled_head;
          Alcotest.test_case "far-future spill" `Quick test_wheel_far_future_spill;
          Alcotest.test_case "cancellation churn bounded" `Quick
            test_wheel_churn_bounded;
          QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "idle member fast path" `Quick
            test_coordinator_idle_fast_path;
        ] );
    ]
