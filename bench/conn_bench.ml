(* Connection-plane benchmark: the per-connection costs PR 8 drove to
   zero allocation, plus the multi-million-connection soak its memory
   gate rides on.

   - [conn_open_close]: steady open/close churn through the SoA
     [Conn_table] vs the retired Hashtbl implementation
     ([Conn_table.Ref]).  The gate requires exactly zero minor words
     per op on the SoA path — connection churn must not touch the GC.
   - [sock_owner]: dedicated-socket ownership lookups through the
     dense int side table ([Conn_table.Dense]) vs a Hashtbl mapping to
     boxed pairs.  Same zero-allocation requirement.
   - [trace_binary]: encoding one fixed event stream through the
     binary trace sink vs the JSONL sink (informational speedup; the
     formats differ so there is no shared checksum beyond the count).
   - [device_soak]: a full Reuseport device accepting, serving and
     closing 2M connections (10x one worker's default
     [conn_capacity]) in a steady stream, with sampling enabled.  The
     row records the process max-RSS high-water mark, which covers
     this group alone (the harness runs each group in a process of its
     own); the gate bounds it against the committed baseline, which is
     what catches a reintroduced per-connection or per-sample leak. *)

let mix = Measure.mix

(* ------------------------------------------------------------------ *)
(* Connection-table churn                                               *)

(* Steady state: [window] connections live; each op closes the oldest
   and opens a new one, the shape of a proxy at a fixed concurrency.
   Every 8th op also probes a live key so lookups are in the loop. *)
let churn_scenario ~window ~ops =
  let module T = Lb.Conn_table in
  let payload = "conn" (* shared: the table's own cost is what's measured *) in
  let fast () =
    let t = T.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      T.add t ~key:k ~aux:(2 * k) payload
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      ignore (T.remove t (i + 1));
      let k = i + window + 1 in
      T.add t ~key:k ~aux:(2 * k) payload;
      if i land 7 = 0 then begin
        let probe = i + 2 + (mix i land (window - 1)) in
        let s = T.find_slot t probe in
        if s >= 0 then sum := !sum + T.aux t s
      end
    done;
    !sum + T.length t
  in
  let base () =
    let t = T.Ref.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      T.Ref.add t ~key:k ~aux:(2 * k) payload
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      ignore (T.Ref.remove t (i + 1));
      let k = i + window + 1 in
      T.Ref.add t ~key:k ~aux:(2 * k) payload;
      if i land 7 = 0 then begin
        let probe = i + 2 + (mix i land (window - 1)) in
        let s = T.Ref.find_slot t probe in
        if s >= 0 then sum := !sum + T.Ref.aux t s
      end
    done;
    !sum + T.Ref.length t
  in
  let words =
    let t = T.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      T.add t ~key:k ~aux:(2 * k) payload
    done;
    let off = ref 0 in
    fun () ->
      let base = !off in
      for i = base to base + ops - 1 do
        ignore (T.remove t (i + 1));
        T.add t ~key:(i + window + 1) ~aux:0 payload;
        if i land 7 = 0 then ignore (T.find_slot t (i + 2))
      done;
      off := base + ops
  in
  (fast, base, words)

(* Dedicated-socket ownership: socket id -> (worker, fd).  The dense
   side table stores the two ints unboxed; the retired Hashtbl boxed a
   pair per bind. *)
let sock_owner_scenario ~window ~ops =
  let module D = Lb.Conn_table.Dense in
  let fast () =
    let d = D.create ~capacity:window () in
    for k = 1 to window do
      D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let k = 1 + (mix i land (window - 1)) in
      sum := !sum + D.get_a d k + D.get_b d k;
      if i land 15 = 0 then begin
        D.remove d k;
        D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
      end
    done;
    !sum
  in
  let base () =
    let h = Hashtbl.create window in
    for k = 1 to window do
      Hashtbl.replace h k (k land 7, k * 3)
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let k = 1 + (mix i land (window - 1)) in
      (match Hashtbl.find_opt h k with
      | Some (a, b) -> sum := !sum + a + b
      | None -> ());
      if i land 15 = 0 then begin
        Hashtbl.remove h k;
        Hashtbl.replace h k (k land 7, k * 3)
      end
    done;
    !sum
  in
  let words =
    let d = D.create ~capacity:window () in
    for k = 1 to window do
      D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
    done;
    fun () ->
      for i = 0 to ops - 1 do
        let k = 1 + (mix i land (window - 1)) in
        ignore (D.get_a d k + D.get_b d k);
        if i land 15 = 0 then begin
          D.remove d k;
          D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
        end
      done
  in
  (fast, base, words)

(* ------------------------------------------------------------------ *)
(* Trace sink throughput                                                *)

(* A fixed stream cycling the hot event shapes a device run produces;
   both sinks encode the identical records, to a scratch file. *)
let trace_records n =
  List.init n (fun i ->
      let event =
        match i mod 4 with
        | 0 ->
          Trace.Rp_select
            { port = 80; flow_hash = mix i; via = Trace.Prog; slot = i land 7 }
        | 1 -> Trace.Accept { worker = i land 7; conn = i }
        | 2 ->
          Trace.Wst_write { worker = i land 7; column = Trace.Conn; value = i }
        | _ -> Trace.Close { worker = i land 7; conn = i; reset = false }
      in
      { Trace.seq = i; time = i * 1000; event })

let trace_scenario ~ops ~reps () =
  let records = trace_records ops in
  let encode_with make_sink () =
    let path = Filename.temp_file "conn_bench" ".trace" in
    let oc = open_out_bin path in
    let sink = make_sink oc in
    List.iter sink.Trace.write records;
    sink.Trace.close ();
    close_out oc;
    Sys.remove path;
    ops
  in
  let fast, base, _ =
    Measure.pair ~name:"trace_binary" ~reps (encode_with Trace.Binary.sink)
      (encode_with Trace.jsonl_sink)
  in
  let n = float_of_int ops in
  [
    ("fast_ns", fast /. n);
    ("base_ns", base /. n);
    ("speedup", base /. fast);
    ("fast_words", -1.0 (* the encoder's scratch reuse is not a GC gate *));
    ("rss_kb", -1.0);
    ("checksum", n);
  ]

(* ------------------------------------------------------------------ *)
(* Device soak                                                          *)

(* [conns_total] connections through a full Reuseport device: batches
   of [batch] SYNs every 50us from a self-rescheduling pump (so the
   event queue stays shallow and resident memory reflects connection
   state, not pending closures), each connection serving one request
   and closing.  Sampling is on, exercising the bounded ring. *)
let soak_scenario ~conns_total () =
  let workers = 8 in
  (* 32 conns / 50us = 640k conns/s against ~1.3M/s of worker capacity
     at 2us of request CPU plus the fixed accept/close costs: a busy
     but stable device, so the run drains instead of collapsing. *)
  let batch = 32 in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 11 in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode:Lb.Device.Reuseport ~workers ~tenants ()
  in
  Lb.Device.start device;
  Lb.Device.enable_sampling device ~every:(Engine.Sim_time.ms 10) ();
  let events =
    {
      Lb.Device.established =
        (fun conn ->
          let req =
            Lb.Request.make ~id:(Lb.Device.fresh_id device)
              ~op:Lb.Request.Plain_proxy ~size:200
              ~cost:(Engine.Sim_time.us 2) ~tenant_id:conn.Lb.Conn.tenant_id
          in
          ignore (Lb.Device.send device conn req));
      request_done = (fun conn _ -> Lb.Device.close_conn device conn);
      closed = (fun _ -> ());
      reset = (fun _ -> ());
      dispatch_failed = (fun () -> ());
    }
  in
  let opened = ref 0 in
  let rec pump () =
    let n = min batch (conns_total - !opened) in
    for _ = 1 to n do
      incr opened;
      Lb.Device.connect device ~tenant:0 ~events
    done;
    if !opened < conns_total then
      ignore (Engine.Sim.schedule_after sim ~delay:(Engine.Sim_time.us 50) pump)
  in
  ignore (Engine.Sim.schedule sim ~at:(Engine.Sim_time.us 1) pump);
  let limit =
    Engine.Sim_time.add
      (Engine.Sim_time.us (50 * ((conns_total / batch) + 2)))
      (Engine.Sim_time.ms 1000)
  in
  let t0 = Unix.gettimeofday () in
  Engine.Sim.run_until sim ~limit;
  let dt = Unix.gettimeofday () -. t0 in
  let completed = Lb.Device.completed device in
  if completed < conns_total * 99 / 100 then
    failwith
      (Printf.sprintf "conn bench soak: only %d/%d connections completed"
         completed conns_total);
  [
    ("fast_ns", dt *. 1e9 /. float_of_int conns_total);
    ("base_ns", -1.0);
    ("speedup", -1.0);
    ("fast_words", -1.0);
    ("rss_kb", float_of_int (Measure.max_rss_kb ()));
    ("checksum", float_of_int completed);
  ]

(* ------------------------------------------------------------------ *)

let scenarios ~quick =
  let reps = if quick then 5 else 3 in
  let churn_ops = if quick then 200_000 else 2_000_000 in
  let window = if quick then 16_384 else 131_072 in
  let trace_ops = if quick then 50_000 else 500_000 in
  let soak_conns = if quick then 200_000 else 2_000_000 in
  let pair name scenario () =
    let fast, base, words = scenario ~window ~ops:churn_ops in
    Measure.per_op ~name ~reps ~ops:churn_ops ~fast ~base ~words @ [ ("rss_kb", -1.0) ]
  in
  [
    ("conn_open_close", pair "conn_open_close" churn_scenario);
    ("sock_owner", pair "sock_owner" sock_owner_scenario);
    ("trace_binary", trace_scenario ~ops:trace_ops ~reps);
    ("device_soak", soak_scenario ~conns_total:soak_conns);
  ]

(* - every paired row keeps >= 75% of its same-size baseline speedup
     (these ops run in tens of ns, so the ratio is noisier than the
     coarser groups'; the floors do the load-bearing work) and holds
     its absolute floor: SoA churn beats the Hashtbl path outright, the
     dense side table and the binary sink beat their boxed/textual
     baselines by a wide margin;
   - [conn_open_close] / [sock_owner] allocate exactly zero minor words
     per op;
   - [device_soak]'s max-RSS stays <= 1.5x the baseline's — the
     multi-million-connection memory ceiling. *)
let group =
  {
    Gate.id = "conn";
    title = "Connection-plane benchmarks";
    sized = true;
    scenarios;
    rules =
      (function
      | "conn_open_close" ->
        Gate.[ Ratio ("speedup", 0.75); Floor ("speedup", 1.3); Zero "fast_words" ]
      | "sock_owner" ->
        Gate.[ Ratio ("speedup", 0.75); Floor ("speedup", 3.0); Zero "fast_words" ]
      | "trace_binary" -> Gate.[ Ratio ("speedup", 0.75); Floor ("speedup", 4.0) ]
      | "device_soak" -> Gate.[ Ceiling ("rss_kb", 1.5, 0.0) ]
      | _ -> []);
  }
