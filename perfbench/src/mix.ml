(* The benchmark's traffic mixes, their seeded inputs, and one
   simulator instance per repetition.

   All traffic is open loop: arrivals are scheduled up front at fixed
   simulated times whatever the LB's progress.  The device mixes
   replay a [Workload.Replay] trace recorded from the seed; the fleet
   mix schedules a seeded connection list onto an [Lb_cluster]. *)

module ST = Engine.Sim_time

type device_spec = {
  mode : Lb.Device.mode;
  profile : Workload.Profile.t;
  rate : float;  (** replay speed-up of the recorded trace *)
  duration : ST.t;  (** recorded trace length, before rate scaling *)
  splice_copy : int;  (** selective-copy budget per chunk, bytes *)
}

type fleet_spec = {
  fleet_devices : int;
  fleet_workers : int;
  conns : int;
  requests : int;  (** per connection *)
  arrivals : ST.t;  (** connections arrive over [0, arrivals) *)
}

type shape = Device of device_spec | Fleet of fleet_spec

type t = {
  name : string;
  shape : shape;
  slice : ST.t;  (** simulated time advanced by one [Sim.run_until] *)
  warmup : ST.t;  (** simulated time run before host measurement starts *)
  horizon : ST.t;  (** simulated end of a repetition; all traffic drains *)
}

let workers = 8
let tenants = 64
let hermes = Lb.Device.Hermes Hermes.Config.default

let syn_churn =
  let duration = ST.ms 2400 in
  {
    name = "syn-churn";
    shape =
      Device
        {
          mode = hermes;
          profile = Workload.Cases.profile Workload.Cases.Case1 ~workers;
          rate = 2.0;
          duration;
          splice_copy = 0;
        };
    slice = ST.ms 1;
    warmup = ST.ms 20;
    horizon = ST.ms 1250;
  }

let keepalive =
  {
    name = "keepalive";
    shape =
      Device
        {
          mode = hermes;
          profile = Workload.Cases.profile Workload.Cases.Case3 ~workers;
          rate = 1.0;
          duration = ST.sec 16;
          splice_copy = 0;
        };
    slice = ST.ms 10;
    warmup = ST.sec 10;
    horizon = ST.ms 16_100;
  }

let splice_stream =
  {
    name = "splice-stream";
    shape =
      Device
        {
          mode = Lb.Device.Splice;
          profile =
            Workload.Cases.splice_profile Workload.Cases.Long_streaming ~workers;
          rate = 1.0;
          duration = ST.sec 6;
          splice_copy = 256;
        };
    slice = ST.ms 10;
    warmup = ST.sec 3;
    horizon = ST.ms 6_100;
  }

let fleet =
  {
    name = "fleet";
    shape =
      Fleet
        {
          fleet_devices = 100;
          fleet_workers = 2;
          conns = 20_000;
          requests = 2;
          arrivals = ST.ms 3_500;
        };
    (* ten coordinator rounds, about 0.4 ms of host work like the device
       mixes' slices; the traced run times single rounds *)
    slice = ST.ms 1;
    warmup = ST.zero;
    horizon = ST.sec 4;
  }

let all = [ syn_churn; keepalive; splice_stream; fleet ]
let find name = List.find_opt (fun m -> String.equal m.name name) all

(* --- inputs ----------------------------------------------------------- *)

type fleet_conn = { at : ST.t; tenant : int; costs : ST.t array }

type input = Trace of Workload.Replay.trace | Conns of fleet_conn array

let fleet_tenants = 4

let make_input mix ~seed =
  let rng = Engine.Rng.create seed in
  match mix.shape with
  | Device d ->
    Trace
      (Workload.Replay.record ~profile:d.profile ~tenants ~duration:d.duration
         ~rng)
  | Fleet f ->
    let cost = Engine.Dist.lognormal_of_quantiles ~p50:0.0008 ~p99:0.004 in
    let arrivals =
      Array.init f.conns (fun _ -> Engine.Rng.int rng f.arrivals)
    in
    Array.sort compare arrivals;
    Conns
      (Array.map
         (fun at ->
           {
             at;
             tenant = Engine.Rng.int rng fleet_tenants;
             costs =
               Array.init f.requests (fun _ ->
                   max 1 (ST.of_sec_f (Engine.Dist.sample cost rng)));
           })
         arrivals)

(* Requests the input offers. *)
let offered = function
  | Trace tr ->
    List.fold_left
      (fun n op -> match op with Workload.Replay.Send _ -> n + 1 | _ -> n)
      0 (Workload.Replay.ops tr)
  | Conns cs -> Array.fold_left (fun n c -> n + Array.length c.costs) 0 cs

(* --- one simulator instance ------------------------------------------ *)

(* Wraps a named set-up step; the traced run records a span around it. *)
type span = { run : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { run = (fun _ f -> f ()) }

type instance = {
  sim : Engine.Sim.t;  (** the simulator the slices advance *)
  devices : unit -> Lb.Device.t list;
  completed : unit -> int;
  dropped : unit -> int;
  conns_reset : unit -> int;
  events : unit -> int;  (** events fired so far, over every simulator *)
  pending : unit -> int;  (** events pending, over every simulator *)
  trace_records : unit -> Trace.record list;
      (** members' trace rings (fleet only; a device traces into the
          installed sink) *)
  trace_drops : unit -> int;  (** records those rings overwrote *)
  close : unit -> unit;
}

let device_instance spec input ~seed ~span =
  let trace =
    match input with Trace tr -> tr | Conns _ -> invalid_arg "device input"
  in
  let sim = Engine.Sim.create () in
  let device =
    span.run "lb.create" (fun () ->
        let device =
          Lb.Device.create ~sim
            ~rng:(Engine.Rng.create (seed + 1))
            ~mode:spec.mode ~workers
            ~tenants:(Netsim.Tenant.population ~n:tenants ~base_dport:20000)
            ~splice_copy:spec.splice_copy ()
        in
        Lb.Device.start device;
        device)
  in
  span.run "workload.replay" (fun () ->
      Workload.Replay.replay trace ~device ~rate:spec.rate);
  {
    sim;
    devices = (fun () -> [ device ]);
    completed = (fun () -> Lb.Device.completed device);
    dropped = (fun () -> Lb.Device.dropped device);
    conns_reset = (fun () -> Lb.Device.conns_reset device);
    events = (fun () -> Engine.Sim.events_fired sim);
    pending = (fun () -> Engine.Sim.pending_count sim);
    trace_records = (fun () -> []);
    trace_drops = (fun () -> 0);
    close = ignore;
  }

let fleet_instance spec input ~seed ~shards ~span ~trace_capacity =
  let conns =
    match input with Conns cs -> cs | Trace _ -> invalid_arg "fleet input"
  in
  let sim = Engine.Sim.create () in
  let tenants = Netsim.Tenant.population ~n:fleet_tenants ~base_dport:20000 in
  let cluster =
    span.run "lb.create" (fun () ->
        Cluster.Lb_cluster.create ~sim
          ~rng:(Engine.Rng.create (seed + 1))
          ~tenants ~devices:spec.fleet_devices ~mode:hermes
          ~workers:spec.fleet_workers ~shards ?trace_capacity ())
  in
  let open Cluster.Lb_cluster in
  span.run "workload.replay" (fun () ->
      Array.iter
        (fun c ->
          ignore
            (Engine.Sim.schedule sim ~at:c.at (fun () ->
                 let pending = ref (Array.length c.costs) in
                 connect cluster ~tenant:c.tenant
                   ~events:
                     {
                       null_events with
                       established =
                         (fun h ->
                           Array.iter
                             (fun cost ->
                               send h
                                 (Lb.Request.make ~id:(fresh_id cluster)
                                    ~op:Lb.Request.Plain_proxy ~size:256 ~cost
                                    ~tenant_id:c.tenant))
                             c.costs);
                       request_done =
                         (fun h _ ->
                           decr pending;
                           if !pending = 0 then close h);
                     })))
        conns);
  let members () = List.map snd (devices cluster) in
  let sum f () = List.fold_left (fun n d -> n + f d) 0 (members ()) in
  let member_sims f () =
    f sim
    + List.fold_left (fun n d -> n + f (Lb.Device.sim d)) 0 (members ())
  in
  {
    sim;
    devices = members;
    completed = (fun () -> completed cluster);
    dropped = (fun () -> dropped cluster);
    conns_reset = sum Lb.Device.conns_reset;
    events = member_sims Engine.Sim.events_fired;
    pending = member_sims Engine.Sim.pending_count;
    trace_records = (fun () -> merged_trace cluster);
    trace_drops = (fun () -> trace_drops cluster);
    close = (fun () -> shutdown cluster);
  }

let instantiate ?(span = no_span) ?trace_capacity mix input ~seed ~shards =
  match mix.shape with
  | Device d -> device_instance d input ~seed ~span
  | Fleet f -> fleet_instance f input ~seed ~shards ~span ~trace_capacity

(* --- modelled statistics ---------------------------------------------- *)

type model = {
  offered : int;
  completed : int;
  dropped : int;
  conns_reset : int;
  latency_p50_ms : float;
  latency_p99_ms : float;
  throughput_krps : float;
  worker_util_mean : float;
  kernel_cycles_per_req : float;
}

let per n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let model inst ~offered =
  let devices = inst.devices () in
  let lat = Stats.Histogram.create () in
  List.iter
    (fun d -> Stats.Histogram.merge_into ~src:(Lb.Device.latency_hist d) ~dst:lat)
    devices;
  let pct p =
    if Stats.Histogram.count lat = 0 then 0.0
    else Stats.Histogram.percentile lat p /. 1e6
  in
  let elapsed = Engine.Sim.now inst.sim in
  let busy, cores, kernel =
    List.fold_left
      (fun (busy, cores, kernel) d ->
        ( Array.fold_left ( + ) busy (Lb.Device.cpu_busy_per_worker d),
          cores + Lb.Device.worker_count d,
          kernel + Lb.Device.kernel_dispatch_cycles d
          + Lb.Device.splice_kernel_cycles d ))
      (0, 0, 0) devices
  in
  let completed = inst.completed () in
  {
    offered;
    completed;
    dropped = inst.dropped ();
    conns_reset = inst.conns_reset ();
    latency_p50_ms = pct 50.0;
    latency_p99_ms = pct 99.0;
    throughput_krps = float_of_int completed /. ST.to_sec_f elapsed /. 1000.0;
    worker_util_mean =
      per busy 1 /. (float_of_int cores *. float_of_int elapsed);
    kernel_cycles_per_req = per kernel completed;
  }

(* A hash over every modelled statistic, as a number: the first 48 bits
   of an MD5 over their printed form (exact in a JSON double). *)
let digest m =
  let s =
    Printf.sprintf "%d|%d|%d|%d|%.17g|%.17g|%.17g|%.17g|%.17g" m.offered
      m.completed m.dropped m.conns_reset m.latency_p50_ms m.latency_p99_ms
      m.throughput_krps m.worker_util_mean m.kernel_cycles_per_req
  in
  int_of_string ("0x" ^ String.sub (Digest.to_hex (Digest.string s)) 0 12)

(* The output check of one repetition. *)
let conserved m = m.completed + m.dropped + m.conns_reset <= m.offered
