(* Wheel-vs-heap differential stress, heavier than the qcheck suite in
   test_engine.ml: long random programs mixing near-term events,
   far-future spills (beyond the wheel's top level), cancellations and
   partial run_until windows, replayed against both engines with a
   demand of identical observable firing order.

   This started life as scratch code that was never wired into the
   build; it is now a real test: 200 seeded trials, each comparing the
   full (time, id) firing log and the pending counts at every
   partial-run checkpoint. *)

type 'h engine = {
  schedule : at:int -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  run_until : limit:int -> unit;
  now : unit -> int;
  pending : unit -> int;
}

type instr =
  | Schedule of int (* delay *)
  | Cancel of int (* index into issued handles *)
  | Advance of int (* run_until now + delta, then checkpoint *)

let gen_program rng =
  let n = 1 + Engine.Rng.int rng 80 in
  List.init n (fun _ ->
      let kind = Engine.Rng.int rng 10 in
      let big = Engine.Rng.int rng 3 = 0 in
      let t =
        if big then (1 lsl 50) + Engine.Rng.int rng (1 lsl 20)
        else Engine.Rng.int rng (1 lsl (5 * (1 + Engine.Rng.int rng 6)))
      in
      if kind < 6 then Schedule t else if kind < 8 then Cancel t else Advance t)

(* Replay [prog] against one engine; the log records every firing as
   (time, id) and every checkpoint as (time, -1 - pending). *)
let replay (type h) (e : h engine) prog =
  let log = ref [] in
  let handles = ref [] in
  let issued = ref 0 in
  List.iter
    (fun instr ->
      match instr with
      | Schedule delay ->
        let id = !issued in
        incr issued;
        let h =
          e.schedule ~at:(e.now () + delay) (fun () ->
              log := (e.now (), id) :: !log)
        in
        handles := h :: !handles
      | Cancel pick -> (
        match !handles with
        | [] -> ()
        | hs -> e.cancel (List.nth hs (pick mod List.length hs)))
      | Advance delta ->
        e.run_until ~limit:(e.now () + delta);
        log := (e.now (), -1 - e.pending ()) :: !log)
    prog;
  (* Drain everything left so far-future spills are compared too. *)
  e.run_until ~limit:max_int;
  List.rev !log

let wheel_engine () =
  let sim = Engine.Sim.create () in
  {
    schedule = (fun ~at f -> Engine.Sim.schedule sim ~at f);
    cancel = (fun h -> Engine.Sim.cancel sim h);
    run_until = (fun ~limit -> Engine.Sim.run_until sim ~limit);
    now = (fun () -> Engine.Sim.now sim);
    pending = (fun () -> Engine.Sim.pending_count sim);
  }

let heap_engine () =
  let sim = Test_support.Ref_heap.create () in
  {
    schedule = (fun ~at f -> Test_support.Ref_heap.schedule sim ~at f);
    cancel = (fun h -> Test_support.Ref_heap.cancel sim h);
    run_until = (fun ~limit -> Test_support.Ref_heap.run_until sim ~limit);
    now = (fun () -> Test_support.Ref_heap.now sim);
    pending = (fun () -> Test_support.Ref_heap.pending_count sim);
  }

let test_stress () =
  let rng = Engine.Rng.create 12345 in
  for trial = 1 to 200 do
    let prog = gen_program rng in
    let wheel_log = replay (wheel_engine ()) prog in
    let heap_log = replay (heap_engine ()) prog in
    if wheel_log <> heap_log then
      Alcotest.failf
        "trial %d: wheel and heap diverged (%d vs %d log entries; first \
         mismatch at %s)"
        trial (List.length wheel_log) (List.length heap_log)
        (match
           List.find_opt
             (fun (a, b) -> a <> b)
             (List.combine
                (List.filteri (fun i _ -> i < List.length heap_log) wheel_log)
                (List.filteri (fun i _ -> i < List.length wheel_log) heap_log))
         with
        | Some ((t, i), (t', i')) ->
          Printf.sprintf "(%d,%d) vs (%d,%d)" t i t' i'
        | None -> "length difference only")
  done

let () =
  Alcotest.run "stress_wheel"
    [
      ( "wheel_vs_heap",
        [ Alcotest.test_case "200 seeded random programs" `Quick test_stress ] );
    ]
