(* Discrete-event simulation driver, backed by the hierarchical
   timing wheel in [Wheel].  The wheel owns ordering, cancellation and
   storage; this layer owns the virtual clock, the trace timestamp,
   the stop flag and the fired-event counter.

   The wheel reproduces the retired binary heap's exact (time, seq)
   firing order — the golden-trace conformance harness depends on it,
   and test/test_engine.ml proves it differentially against the heap
   kept in the test-support library — while making [cancel] O(1) (the
   action closure is dropped immediately, where the heap leaked it
   until drain) and [pending_count] O(1) (a live counter, where the
   heap scanned every slot including tombstones). *)

type handle = Wheel.entry

type t = {
  wheel : Wheel.t;
  mutable clock : Sim_time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable fired : int;
  mutable shard : int;
}

let create () =
  {
    wheel = Wheel.create ();
    clock = 0;
    seq = 0;
    stopping = false;
    fired = 0;
    shard = 0;
  }

let now t = t.clock
let shard_id t = t.shard
let set_shard t id = t.shard <- id

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: at=%d is before now=%d" at t.clock);
  let seq = t.seq in
  t.seq <- seq + 1;
  Wheel.add t.wheel ~time:at ~seq action

let feed t ~n ~at ~run =
  if n < 0 then invalid_arg "Sim.feed: negative n";
  if n > 0 then begin
    (* Reserve the whole block now, exactly where scheduling every
       member up front would have numbered them; the wheel then fires
       each member in its (time, seq) place although only one is ever
       pending. *)
    let first = t.seq in
    t.seq <- first + n;
    let at0 = at 0 in
    if at0 < t.clock then
      invalid_arg
        (Printf.sprintf "Sim.feed: at 0 = %d is before now=%d" at0 t.clock);
    let next = ref 0 and last = ref at0 in
    let rec fire () =
      let i = !next in
      if i + 1 < n then begin
        let time = at (i + 1) in
        if time < !last then
          invalid_arg
            (Printf.sprintf "Sim.feed: at %d = %d is before at %d = %d" (i + 1)
               time i !last);
        next := i + 1;
        last := time;
        ignore (Wheel.add t.wheel ~time ~seq:(first + i + 1) fire)
      end;
      run i
    in
    ignore (Wheel.add t.wheel ~time:at0 ~seq:first fire)
  end

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(Sim_time.add t.clock delay) action

let cancel t ev = Wheel.cancel t.wheel ev
let is_pending _t ev = Wheel.is_live ev
let pending_count t = Wheel.live_count t.wheel
let occupancy t = Wheel.stored_count t.wheel

let fire t e =
  let time = Wheel.time e in
  t.clock <- time;
  Trace.set_now time;
  t.fired <- t.fired + 1;
  Wheel.take e ()

let step t =
  let e = Wheel.pop t.wheel ~limit:max_int in
  if e == Wheel.none then false
  else begin
    fire t e;
    true
  end

let run t =
  t.stopping <- false;
  while (not t.stopping) && step t do
    ()
  done

let run_until t ~limit =
  t.stopping <- false;
  let continue = ref true in
  while !continue && not t.stopping do
    let e = Wheel.pop t.wheel ~limit in
    if e == Wheel.none then continue := false else fire t e
  done;
  if t.clock < limit then begin
    t.clock <- limit;
    Trace.set_now limit
  end

let next_time_lower_bound t = Wheel.next_time_lower_bound t.wheel

let skip_idle t ~limit =
  if Wheel.next_time_lower_bound t.wheel <= limit then `Busy
  else begin
    (* Nothing can fire by [limit]: [run_until] would only reset the
       stop flag and move the clock. *)
    t.stopping <- false;
    if t.clock < limit then begin
      t.clock <- limit;
      `Advanced
    end
    else `Unchanged
  end

let stop t = t.stopping <- true
let events_fired t = t.fired
