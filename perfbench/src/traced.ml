(* The traced run: per-layer attribution of host time, allocation and
   work counts.

   Untraced and traced repetitions alternate within one budget, so the
   tracing overhead is measured against the same process's untraced
   cost.  A traced repetition records spans around the benchmark's
   calls into each layer, polls the GC spans Runtime_events reports at
   every slice boundary, and feeds every [Trace] event into a
   {!Probe}.  Afterwards the probe's recorded inputs are replayed
   through single layers ([Reuseport.select], [Scheduler.run],
   [Splice.decide], [Trace.Binary.sink]) to time them in isolation. *)

module Acct = struct
  type t = { calls : int; syncs : int; passed : int; considered : int }

  let zero = { calls = 0; syncs = 0; passed = 0; considered = 0 }

  let of_devices devices =
    List.fold_left
      (fun acc d ->
        match Lb.Device.hermes_runtime d with
        | None -> acc
        | Some rt ->
          let a = Hermes.Runtime.accounting rt in
          {
            calls = acc.calls + a.Hermes.Runtime.scheduler_calls;
            syncs = acc.syncs + a.Hermes.Runtime.sync_calls;
            passed = acc.passed + a.Hermes.Runtime.pass_sum;
            considered = acc.considered + a.Hermes.Runtime.considered_sum;
          })
      zero devices

  let add a b =
    {
      calls = a.calls + b.calls;
      syncs = a.syncs + b.syncs;
      passed = a.passed + b.passed;
      considered = a.considered + b.considered;
    }
end

type kind = Untraced | Traced

(* One repetition of the schedule, with the host window it occupied. *)
type run = { kind : kind; shards : int; rep : Bench.rep; window : int * int }

(* Ring members' trace capacity on [fleet]: enough for every event of
   the largest member, so the merged trace is complete. *)
let fleet_trace_capacity = 1 lsl 15

let slice_span mix = if Bench.multi_domain mix then "cluster.round" else "engine.run_until"

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d
let fratio n d = if d = 0.0 then 0.0 else n /. d

type result = {
  metrics : (string * float) list;
  reps : Bench.rep list;  (** every repetition, for the output check *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let run mix ~seed ~seconds ~nproc ~scratch =
  let started = Clock.now_ns () in
  let gc = Gc_events.start () in
  let spans = Spans.create () in
  let input = Spans.record spans "workload.record" (fun () -> Mix.make_input mix ~seed) in
  let record_ns = match Spans.spans spans with [ s ] -> s.Spans.stop - s.Spans.start | _ -> 0 in
  let offered = Mix.offered input in
  let probe = Probe.create () in
  let acct = ref Acct.zero in
  let pending_peak = ref 0 and open_peak = ref 0 and trace_drops = ref 0 in
  let fleet = Bench.multi_domain mix in
  let slice_name = slice_span mix in
  let hooks =
    {
      Bench.span = { Mix.run = (fun name f -> Spans.record spans name f) };
      slice =
        (fun ~warm f ->
          Spans.record spans (if warm then "engine.warmup" else slice_name) f);
      between_slices =
        (fun inst ->
          Spans.record spans "bench.sample" (fun () ->
              Gc_events.poll gc;
              pending_peak := max !pending_peak (inst.Mix.pending ());
              let open_conns =
                List.fold_left
                  (fun n d -> Array.fold_left ( + ) n (Lb.Device.conns_per_worker d))
                  0 (inst.Mix.devices ())
              in
              open_peak := max !open_peak open_conns));
      rep_start = (fun () -> if not fleet then Trace.install (Probe.sink probe));
      rep_end =
        (fun inst ->
          if not fleet then Trace.uninstall ()
          else
            Spans.record spans "trace.merge" (fun () ->
                List.iter (Probe.feed probe) (inst.Mix.trace_records ());
                trace_drops := !trace_drops + inst.Mix.trace_drops ());
          acct := Acct.add !acct (Acct.of_devices (inst.Mix.devices ())));
    }
  in
  let shards = if fleet then nproc else 1 in
  (* On [fleet] the traced run drives the control simulator one
     coordinator round (one lookahead) at a time, so each slice is one
     round. *)
  let slice = if fleet then Hermes.Runtime.cross_shard_latency () else mix.Mix.slice in
  let schedule =
    if fleet then [| (Untraced, nproc); (Traced, nproc); (Traced, 1) |]
    else [| (Untraced, 1); (Traced, 1) |]
  in
  let one i =
    let kind, shards = schedule.(i mod Array.length schedule) in
    (match kind with
    | Traced -> Runtime_events.resume ()
    | Untraced -> Runtime_events.pause ());
    Bench.settle ();
    Gc_events.poll gc;
    let w0 = Clock.now_ns () in
    let rep =
      match kind with
      | Untraced -> Bench.run_rep ~slice mix input ~seed ~shards ~offered
      | Traced ->
        let trace_capacity = if fleet then Some fleet_trace_capacity else None in
        Bench.run_rep ~hooks ?trace_capacity ~slice mix input ~seed ~shards ~offered
    in
    let w1 = Clock.now_ns () in
    Gc_events.poll gc;
    { kind; shards; rep; window = (w0, w1) }
  in
  let runs =
    Bench.repeat ~seconds ~min_reps:(Array.length schedule) ~started one
  in
  Gc_events.stop gc;
  let select kind shards =
    List.filter (fun r -> r.kind = kind && r.shards = shards) runs
  in
  let traced = select Traced shards and untraced = select Untraced shards in
  (* Counts cover whole traced repetitions and spans every traced
     repetition (on [fleet], both shard counts); the overhead and
     per-domain GC shares compare runs at [shards] only. *)
  let traced_all = List.filter (fun r -> r.kind = Traced) runs in
  let traced_reps = List.map (fun r -> r.rep) traced_all in
  (* GC volume is read from untraced repetitions: the probe's own
     records would inflate it. *)
  let untraced_reps = List.map (fun r -> r.rep) untraced in
  let sum f = List.fold_left (fun n r -> n + f r) 0 traced_reps in
  let completed = sum (fun r -> r.Bench.model.Mix.completed) in
  let per_req n = ratio n completed in
  let windows_of runs = List.map (fun r -> r.window) runs in
  let windows = windows_of traced_all in
  let window_ns ws = List.fold_left (fun n (a, b) -> n + (b - a)) 0 ws in
  let in_windows (a, b) = List.exists (fun (w0, w1) -> a >= w0 && b <= w1) windows in
  let gc_spans = List.filter (fun (_, a, b) -> in_windows (a, b)) (Gc_events.spans gc) in
  let gc_of ring =
    Spans.merge (List.filter_map (fun (r, a, b) -> if r = ring then Some (a, b) else None) gc_spans)
  in
  let main_gc = gc_of 0 in
  let covered ?(ws = windows) merged =
    List.fold_left (fun n (a, b) -> n + Spans.covered merged a b) 0 ws
  in
  let share ?(ws = windows) ns = fratio (float_of_int ns) (float_of_int (window_ns ws)) in
  let all_spans = List.filter (fun s -> in_windows (s.Spans.start, s.Spans.stop)) (Spans.spans spans) in
  let self = Spans.self_by_name all_spans ~gc:main_gc in
  let self_of name = Option.value (Hashtbl.find_opt self name) ~default:0 in
  let attributed =
    Spans.merge
      (List.map (fun s -> (s.Spans.start, s.Spans.stop)) all_spans
      @ Array.to_list main_gc)
  in
  let pauses =
    Pct.sorted_copy
      (Array.map (fun (a, b) -> float_of_int (b - a) /. 1e3) main_gc)
  in
  let pause_p99 = if Array.length pauses = 0 then 0.0 else Pct.of_sorted pauses 99.0 in
  let replay_s =
    let per_rep =
      List.filter_map
        (fun s ->
          if String.equal s.Spans.name "workload.replay" then
            Some (Clock.sec_of_ns (Spans.self_time s ~gc:main_gc))
          else None)
        all_spans
    in
    if per_rep = [] then 0.0 else Pct.median (Array.of_list per_rep)
  in
  (* Traced and untraced repetitions ran at different moments, so
     they are compared at reference speed. *)
  let ref_ns r = float_of_int r.Bench.measured_ns *. Bench.speed r in
  let host_per_req runs =
    let reps = List.map (fun r -> r.rep) runs in
    fratio (Bench.sum_by ref_ns reps) (Bench.sum_by (fun r -> float_of_int r.Bench.completed) reps)
  in
  let median_measured runs =
    if runs = [] then 0.0 else Bench.median_by ref_ns (List.map (fun r -> r.rep) runs)
  in
  let rounds_sorted = Bench.pooled_slices (List.map (fun r -> r.rep) untraced) in
  let round_us p =
    if fleet && Array.length rounds_sorted > 0 then Pct.of_sorted rounds_sorted p /. 1e3 else 0.0
  in
  let domain_shares =
    if not fleet then []
    else
      List.sort_uniq compare (List.map (fun (r, _, _) -> r) gc_spans)
      |> List.map (fun ring ->
             let ws = windows_of traced in
             (ring, share ~ws (covered ~ws (gc_of ring))))
  in
  let first = List.hd traced_reps in
  let device_spec = match mix.Mix.shape with Mix.Device d -> Some d | Mix.Fleet _ -> None in
  let hermes_mode =
    match device_spec with Some { mode = Lb.Device.Hermes _; _ } -> true | Some _ -> false | None -> true
  in
  let splice_copy = match device_spec with Some d -> d.Mix.splice_copy | None -> 0 in
  let binary_path = Filename.concat scratch "trace.bin" in
  let a = !acct in
  let metrics =
    [
      ("engine.events_per_req", per_req (sum (fun r -> r.Bench.events_total)));
      ( "engine.host_ns_per_event",
        ratio (self_of slice_name) (sum (fun r -> r.Bench.events)) );
      ("engine.pending_peak", float_of_int !pending_peak);
      ("gc.host_share", share (covered main_gc));
      ("gc.pause_us_p99", pause_p99);
      ( "gc.promoted_words_per_req",
        fratio
          (Bench.sum_by (fun r -> r.Bench.promoted_words) untraced_reps)
          (Bench.sum_by (fun r -> float_of_int r.Bench.completed) untraced_reps) );
      ( "gc.major_collections",
        Bench.median_by (fun r -> float_of_int r.Bench.major_collections) untraced_reps );
      ("kernel.selects_per_req", per_req (Probe.count probe "rp_select"));
      ( "kernel.select_host_ns",
        Probe.select_host_ns probe ~attach_prog:hermes_mode );
      ( "kernel.prog_select_share",
        ratio probe.Probe.prog_selects (Probe.count probe "rp_select" + Probe.count probe "rp_drop") );
      ("kernel.epoll_batches_per_req", per_req (Probe.count probe "epoll_dispatch"));
      ("kernel.events_per_batch_p50", float_of_int (Probe.batch_p50 probe));
      ("hermes.sched_calls_per_req", per_req a.Acct.calls);
      ("hermes.map_syncs_per_req", per_req a.Acct.syncs);
      ("hermes.pass_ratio", ratio a.Acct.passed a.Acct.considered);
      ("hermes.wst_writes_per_req", per_req (Probe.count probe "wst_write"));
      ("hermes.sched_host_ns", Probe.sched_host_ns probe);
      ("lb.accepts_per_req", per_req (Probe.count probe "accept"));
      ("lb.open_conns_peak", float_of_int !open_peak);
      ("lb.splice_redirects_per_req", per_req (Probe.count probe "splice_redirect"));
      ("lb.splice_decide_host_ns", Probe.splice_decide_host_ns probe ~copy:splice_copy);
      ("lb.splice_copied_share", ratio probe.Probe.copied probe.Probe.redirected);
      ("workload.record_s", Clock.sec_of_ns record_ns);
      ("workload.replay_s", replay_s);
      ("workload.ops", float_of_int offered);
      ("trace.events_per_req", per_req (Probe.total probe));
      ("trace.binary_host_ns_per_event", Probe.binary_host_ns_per_event probe ~path:binary_path);
      ("trace.overhead_share", Bench.overhead_share ~traced:(host_per_req traced) ~untraced:(host_per_req untraced));
      ("cluster.rounds", if fleet then float_of_int (Array.length first.Bench.slices_ns) else 0.0);
      ("cluster.round_host_us_p50", round_us 50.0);
      ("cluster.round_host_us_p99", round_us 99.0);
      ( "cluster.parallel_speedup",
        if fleet then fratio (median_measured (select Traced 1)) (median_measured traced) else 0.0 );
      ( "cluster.gc_host_share_by_domain",
        List.fold_left (fun m (_, s) -> Float.max m s) 0.0 domain_shares );
      ("unattributed.host_share", share (window_ns windows - covered attributed));
      ("host.speed_factor", Bench.median_by Bench.speed traced_reps);
    ]
    @ Bench.model_metrics first.Bench.model
  in
  let notes =
    [
      Printf.sprintf
        "traced repetitions: %d traced, %d untraced at shards=%d; %d GC spans; %d runtime events lost; %d trace records lost"
        (List.length traced) (List.length untraced) shards (Array.length main_gc) (Gc_events.lost gc)
        !trace_drops;
    ]
    @ List.map (fun (ring, s) -> Printf.sprintf "gc host share of domain ring %d: %.4f" ring s) domain_shares
  in
  { metrics; reps = List.map (fun r -> r.rep) runs; notes }
