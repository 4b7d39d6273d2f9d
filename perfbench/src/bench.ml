(* Repetitions, the measured window, and the metrics computed from it.

   A repetition sets up a fresh simulator instance (timed as set-up),
   runs the warm-up slices untimed, then times every slice of the
   measured window up to the mix's horizon, where all traffic has
   drained.  Every repetition of one seed must produce the same
   modelled statistics; a run repeats until its host-time budget is
   spent. *)

module ST = Engine.Sim_time

type rep = {
  ref_ns : float;  (** median reference kernel time during this repetition *)
  setup_ns : int;
  measured_ns : int;
  slices_ns : float array;  (** host ns of each measured slice *)
  minor_words : float;  (** allocated during the measured window *)
  promoted_words : float;
  major_collections : int;  (** over the whole repetition *)
  completed : int;  (** requests completed in the measured window *)
  events : int;  (** simulator events fired in the measured window *)
  events_total : int;  (** ... over the whole repetition *)
  model : Mix.model;
  digest : int;
}

(* Hooks the traced run attaches to a repetition.  [slice] wraps the
   [run_until] of each slice inside its timing ([warm] tells warm-up
   slices from measured ones); [between_slices] runs outside it.
   [rep_start] runs before set-up, [rep_end] after the last slice. *)
type hooks = {
  span : Mix.span;
  slice : warm:bool -> (unit -> unit) -> unit;
  between_slices : Mix.instance -> unit;
  rep_start : unit -> unit;
  rep_end : Mix.instance -> unit;
}

let multi_domain mix = match mix.Mix.shape with Mix.Fleet _ -> true | Mix.Device _ -> false

(* Minor words so far.  [Gc.minor_words] is exact for the calling
   domain and allocates nothing; across domains only [Gc.quick_stat]
   sees the pool's workers. *)
let words ~all_domains =
  if all_domains then (Gc.quick_stat ()).Gc.minor_words else Gc.minor_words ()

(* Collect the previous repetition's garbage before the next one is
   timed, so every repetition starts from the same heap. *)
let settle () = Gc.full_major ()

let run_rep ?hooks ?trace_capacity ?slice mix input ~seed ~shards ~offered =
  let slice = Option.value slice ~default:mix.Mix.slice in
  let all_domains = shards > 1 in
  let calib = Calib.create () in
  let calibrate () =
    if Calib.due calib then
      match hooks with
      | None -> Calib.sample calib
      | Some h -> h.span.run "host.calib" (fun () -> Calib.sample calib)
  in
  calibrate ();
  let span = match hooks with Some h -> h.span | None -> Mix.no_span in
  Option.iter (fun h -> h.rep_start ()) hooks;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Clock.now_ns () in
  let inst = Mix.instantiate ~span ?trace_capacity mix input ~seed ~shards in
  let setup_ns = Clock.now_ns () - t0 in
  let sim = inst.Mix.sim in
  let limit = ref ST.zero in
  let advance ~warm =
    limit := ST.add !limit slice;
    match hooks with
    | None -> Engine.Sim.run_until sim ~limit:!limit
    | Some h -> h.slice ~warm (fun () -> Engine.Sim.run_until sim ~limit:!limit)
  in
  let between () =
    (match hooks with None -> () | Some h -> h.between_slices inst);
    calibrate ()
  in
  while !limit < mix.Mix.warmup do
    between ();
    advance ~warm:true
  done;
  let n = (mix.Mix.horizon - !limit + slice - 1) / slice in
  let slices_ns = Array.make n 0.0 in
  let completed0 = inst.Mix.completed () and events0 = inst.Mix.events () in
  let stat0 = Gc.quick_stat () in
  let words0 = words ~all_domains in
  let calib_words0 = calib.Calib.words in
  for i = 0 to n - 1 do
    between ();
    let t = Clock.now_ns () in
    advance ~warm:false;
    slices_ns.(i) <- float_of_int (Clock.now_ns () - t)
  done;
  between ();
  let words_loop = Gc.minor_words () in
  let calib_words = float_of_int (calib.Calib.words - calib_words0) in
  let completed = inst.Mix.completed () - completed0 in
  let events_total = inst.Mix.events () in
  let events = events_total - events0 in
  (* The pool's workers fold their counts in when [close] joins them. *)
  inst.Mix.close ();
  let words1 = if all_domains then words ~all_domains else words_loop in
  let stat1 = Gc.quick_stat () in
  Option.iter (fun h -> h.rep_end inst) hooks;
  let model = Mix.model inst ~offered in
  {
    ref_ns = Calib.median_ns calib;
    setup_ns;
    measured_ns = int_of_float (Array.fold_left ( +. ) 0.0 slices_ns);
    slices_ns;
    minor_words = words1 -. words0 -. calib_words;
    promoted_words = stat1.Gc.promoted_words -. stat0.Gc.promoted_words;
    major_collections = stat1.Gc.major_collections - majors0;
    completed;
    events;
    events_total;
    model;
    digest = Mix.digest model;
  }

(* --- the output check ------------------------------------------------- *)

type check = {
  attempted : int;
  failed : int;
  problems : string list;  (** one line per repetition that failed *)
}

(* Every repetition must conserve requests and agree with the first
   repetition's digest.  An operation is one request of the seeded
   input: every repetition replays the same requests, so they are
   counted once, however many repetitions the time budget allows, and
   a seed always gives the same counts.  A request fails if it failed
   in any repetition: one that did not complete in the first, or any
   request at all once a repetition fails the check. *)
let check reps =
  match reps with
  | [] -> { attempted = 0; failed = 0; problems = [ "no repetition ran" ] }
  | first :: _ ->
    let problems =
      List.concat
        (List.mapi
           (fun i r ->
             let m = r.model in
             (if Mix.conserved m then []
              else
                [
                  Printf.sprintf
                    "repetition %d: completed %d + dropped %d + reset %d exceeds offered %d"
                    i m.completed m.dropped m.conns_reset m.offered;
                ])
             @
             if r.digest = first.digest then []
             else
               [
                 Printf.sprintf "repetition %d: model.digest %d differs from repetition 0's %d"
                   i r.digest first.digest;
               ])
           reps)
    in
    let m = first.model in
    {
      attempted = m.offered;
      failed = (if problems = [] then max 0 (m.offered - m.completed) else m.offered);
      problems;
    }

(* --- end-to-end metrics ----------------------------------------------- *)

let median_by f reps = Pct.median (Array.of_list (List.map f reps))
let sum_by f reps = List.fold_left (fun acc r -> acc +. f r) 0.0 reps

let pooled_slices reps = Pct.sorted_copy (Array.concat (List.map (fun r -> r.slices_ns) reps))

(* Peak resident set of this process, from /proc (VmHWM). *)
let max_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> nan
          | Some line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
            else go ()
        in
        go ())
  with Sys_error _ -> nan

(* Host times at reference speed (see {!Calib}). *)
let speed r = Calib.factor r.ref_ns

let kreq_per_host_s r =
  float_of_int r.completed /. (Clock.sec_of_ns r.measured_ns *. speed r) /. 1000.0

let slices_at_ref_speed reps =
  Pct.sorted_copy
    (Array.concat
       (List.map (fun r -> Array.map (fun ns -> ns *. speed r) r.slices_ns) reps))

let end_to_end reps =
  let slices = slices_at_ref_speed reps in
  [
    ("sim_kreq_per_host_s", median_by kreq_per_host_s reps);
    ("slice_host_ms_p50", Pct.of_sorted slices 50.0 /. 1e6);
    ("slice_host_ms_p99", Pct.of_sorted slices 99.0 /. 1e6);
    ( "minor_words_per_req",
      sum_by (fun r -> r.minor_words) reps
      /. sum_by (fun r -> float_of_int r.completed) reps );
    ("max_rss_mb", max_rss_mb ());
    ("setup_s", median_by (fun r -> Clock.sec_of_ns r.setup_ns *. speed r) reps);
  ]

(* The same figures as measured, before normalisation. *)
let raw_line reps =
  let slices = pooled_slices reps in
  Printf.sprintf
    "as measured: sim_kreq_per_host_s=%.4g slice_host_ms_p50=%.4g slice_host_ms_p99=%.4g setup_s=%.4g; reference kernel %.3f ms (speed factor %.3f)"
    (median_by (fun r -> float_of_int r.completed /. Clock.sec_of_ns r.measured_ns /. 1000.0) reps)
    (Pct.of_sorted slices 50.0 /. 1e6)
    (Pct.of_sorted slices 99.0 /. 1e6)
    (median_by (fun r -> Clock.sec_of_ns r.setup_ns) reps)
    (median_by (fun r -> r.ref_ns) reps /. 1e6)
    (median_by speed reps)

let model_metrics (m : Mix.model) =
  [
    ("model.latency_p50_ms", m.latency_p50_ms);
    ("model.latency_p99_ms", m.latency_p99_ms);
    ("model.throughput_krps", m.throughput_krps);
    ("model.worker_util_mean", m.worker_util_mean);
    ("model.kernel_cycles_per_req", m.kernel_cycles_per_req);
    ("model.digest", float_of_int (Mix.digest m));
  ]

(* Tracing overhead: the traced run's host time per request over the
   untraced run's, less one (0.25 = tracing adds a quarter). *)
let overhead_share ~traced ~untraced =
  if untraced <= 0.0 then 0.0 else (traced /. untraced) -. 1.0

(* Repeat [step] until [seconds] of host time have passed since
   [started] and at least [min_reps] repetitions ran. *)
let repeat ~seconds ~min_reps ~started step =
  let rec go i acc =
    if i >= min_reps && Clock.sec_of_ns (Clock.now_ns () - started) >= seconds
    then List.rev acc
    else go (i + 1) (step i :: acc)
  in
  go 0 []

(* The untraced run: repetitions until [seconds] of host time have
   passed, and at least enough that the pooled slices leave ten beyond
   p99.  Returns the end-to-end metrics, the repetitions for the output
   check, and lines describing the run. *)
let run mix ~seed ~seconds ~shards =
  let input = Mix.make_input mix ~seed in
  let offered = Mix.offered input in
  let started = Clock.now_ns () in
  let slices = (mix.Mix.horizon - mix.Mix.warmup) / mix.Mix.slice in
  let min_reps = max 3 ((1000 + slices - 1) / slices) in
  let reps =
    repeat ~seconds ~min_reps ~started (fun _ ->
        settle ();
        run_rep mix input ~seed ~shards ~offered)
  in
  let n = Array.length (pooled_slices reps) in
  let supported = Pct.highest_supported ~n [ 50.0; 90.0; 99.0; 99.9 ] in
  ( end_to_end reps,
    reps,
    [
      raw_line reps;
      Printf.sprintf "repetitions %d, slices %d (highest percentile with ten beyond: p%s)"
        (List.length reps) n
        (match supported with Some p -> Printf.sprintf "%g" p | None -> "-");
      String.concat " "
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%s" k (Report.number v))
           (model_metrics (List.hd reps).model));
    ] )
