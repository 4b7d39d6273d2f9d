type message = {
  at : Sim_time.t;
  src : int;
  dst : int;
  seq : int;
  action : unit -> unit;
}

type t = {
  id : int;
  sim : Sim.t;
  (* [None] on the control shard: it keeps the ambient recorder
     context so caller-installed sinks keep seeing control events. *)
  trace : Trace.state option;
  ring : Trace.Ring.t option;
  mutable outbox : message list; (* reversed: most recent first *)
  mutable msg_seq : int;
}

let create ~id ?trace_capacity () =
  let sim = Sim.create () in
  Sim.set_shard sim id;
  let ring = Option.map (fun capacity -> Trace.Ring.create ~capacity) trace_capacity in
  let sink = Option.map Trace.ring_sink ring in
  { id; sim; trace = Some (Trace.make_state sink); ring; outbox = []; msg_seq = 0 }

let control ~sim = { id = 0; sim; trace = None; ring = None; outbox = []; msg_seq = 0 }

let id t = t.id
let sim t = t.sim

let post t ~dst ~at action =
  let seq = t.msg_seq in
  t.msg_seq <- seq + 1;
  t.outbox <- { at; src = t.id; dst; seq; action } :: t.outbox

let drain_outbox t =
  let msgs = List.rev t.outbox in
  t.outbox <- [];
  msgs

let deliver t msg = ignore (Sim.schedule t.sim ~at:msg.at msg.action)

(* Swap [state] in around [f a b], without a [Fun.protect] closure:
   the round loop calls this for every busy member, with a closed [f]
   so nothing is allocated per call. *)
let within state f a b =
  let saved = Trace.swap_state state in
  match f a b with
  | v ->
    ignore (Trace.swap_state saved);
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Trace.swap_state saved);
    Printexc.raise_with_backtrace e bt

let apply f () = f ()

let with_context t f =
  match t.trace with None -> f () | Some state -> within state apply f ()

let context t =
  match t.trace with
  | Some state -> state
  | None -> invalid_arg "Shard: the control shard is driven by its caller"

(* An idle member fires nothing, so its context need not be entered:
   set the two clocks [run_until] would set and stop there. *)
let skip_idle t ~limit =
  let state = context t in
  match Sim.skip_idle t.sim ~limit with
  | `Busy -> false
  | `Unchanged -> true
  | `Advanced ->
    Trace.set_now_in state limit;
    true

let run_sim sim limit = Sim.run_until sim ~limit

let run_to t ~limit =
  if not (skip_idle t ~limit) then within (context t) run_sim t.sim limit

let records t =
  match t.ring with None -> [] | Some ring -> Trace.Ring.records ring

let dropped_records t =
  match t.ring with None -> 0 | Some ring -> Trace.Ring.dropped ring
