(* Chaos regression scenarios: tail-latency impact of each fault class
   under every dispatch policy (all of [Hermes.Config.Mode] bar the
   wake-all herd).

   Each scenario replays one single-class fault plan (same window:
   injection at 500 ms, 600 ms duration, inside a fixed 2 s horizon)
   against a fresh seeded device per mode, with the invariant monitors
   attached.  Everything is virtual time, so the numbers are
   deterministic for a given seed — the committed BENCH.json
   baseline gates both the invariant verdicts (no violations may
   appear) and the p99, with slack only for deliberate upstream
   changes, not for machine noise (there is none).

   The quick mode trims the mode sweep to the paper's three compared
   policies plus splice; scenario timing is identical in both modes so
   CI results stay comparable against the committed full baseline. *)

module ST = Engine.Sim_time
module Plan = Faults.Plan

let horizon = ST.sec 2
let at = ST.ms 500
let duration = ST.ms 600

(* One plan per fault class, all on the same window so the p99 columns
   are comparable across rows.  [crash] includes the full
   detect-isolate-recover arc; everything else self-clears. *)
let classes =
  [
    ("none", []);
    ("crash", Plan.[
       { at; action = Crash { worker = 1 } };
       { at = at + ST.ms 200; action = Isolate { worker = 1 } };
       { at = at + duration; action = Recover { worker = 1 } };
     ]);
    ("hang", [ { Plan.at; action = Plan.Hang { worker = 1; duration } } ]);
    ("gc_pause",
     [ { Plan.at; action = Plan.Gc_pause { worker = 1; duration = ST.ms 120 } } ]);
    ("slowdown",
     [ { Plan.at; action = Plan.Slowdown { worker = 1; factor = 4; duration } } ]);
    ("wst_stall",
     [ { Plan.at; action = Plan.Wst_stall { worker = 1; duration } } ]);
    ("map_sync_delay",
     [ { Plan.at; action = Plan.Map_sync_delay { delay = ST.ms 20; duration } } ]);
    ("ebpf_fail", [ { Plan.at; action = Plan.Ebpf_fail { duration } } ]);
    ("probe_loss", [ { Plan.at; action = Plan.Probe_loss { duration } } ]);
    ("accept_overflow",
     [ { Plan.at; action = Plan.Accept_overflow { worker = 1; duration } } ]);
    (* Desync alone leaves nothing stale; it must overlap the teardown
       sweeps of an isolate/recover arc so lost sock_deletes actually
       strand kernel entries.  Strict conn-id verification (the splice
       default) must keep violations at zero even so. *)
    ("splice_desync", Plan.[
       { at; action = Splice_desync { worker = 1; duration } };
       { at = at + ST.ms 100; action = Crash { worker = 1 } };
       { at = at + ST.ms 200; action = Isolate { worker = 1 } };
       { at = at + duration; action = Recover { worker = 1 } };
     ]);
  ]

(* Built from the single mode list in [Hermes.Config.Mode] so a new
   device mode cannot silently skip the chaos matrix.  Wake-all is
   excluded everywhere (thundering-herd runs are far too slow for a
   regression gate); quick trims to the paper's three compared
   policies plus splice, whose fault story this bench exists to pin. *)
let modes ~quick =
  List.filter_map
    (fun m ->
      let keep =
        match m with
        | Hermes.Config.Mode.Wake_all -> false
        | Hermes.Config.Mode.Hermes | Hermes.Config.Mode.Exclusive
        | Hermes.Config.Mode.Reuseport | Hermes.Config.Mode.Splice ->
          true
        | Hermes.Config.Mode.Epoll_rr | Hermes.Config.Mode.Io_uring_fifo ->
          not quick
      in
      if keep then Some (Hermes.Config.Mode.to_string m, Lb.Device.of_mode m)
      else None)
    Hermes.Config.Mode.all

let run ~plan ~mode () =
  let config =
    { Faults.Chaos.default_config with Faults.Chaos.mode; horizon; drain = ST.ms 200 }
  in
  let o = Faults.Chaos.run ~plan config in
  [
    ("p50_ms", o.Faults.Chaos.p50_ms);
    ("p99_ms", o.Faults.Chaos.p99_ms);
    ("completed", float_of_int o.Faults.Chaos.completed);
    ("drops", float_of_int o.Faults.Chaos.drops);
    ("resets", float_of_int o.Faults.Chaos.resets);
    ( "violations",
      float_of_int (List.length o.Faults.Chaos.monitor.Faults.Monitor.violations) );
  ]

let scenarios ~quick =
  List.concat_map
    (fun (fault, plan) ->
      List.map
        (fun (mode_label, mode) -> (fault ^ "/" ^ mode_label, run ~plan ~mode))
        (modes ~quick))
    classes

(* No invariant violation may appear, and p99 stays within 1.5x (+0.5
   ms) of the baseline's: virtual time is deterministic, so the slack
   only absorbs deliberate workload or scheduler changes upstream. *)
let group =
  {
    Gate.id = "chaos";
    title = "Chaos bench: p99 per fault class and mode";
    sized = false;
    scenarios;
    rules = (fun _ -> [ Gate.Zero "violations"; Gate.Ceiling ("p99_ms", 1.5, 0.5) ]);
  }
