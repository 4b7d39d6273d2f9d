module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type config = {
  max_events : int;
  epoll_timeout : Sim_time.t;
  conn_capacity : int;
  crash_on : Request.t -> bool;
}

let default_config =
  {
    max_events = 64;
    epoll_timeout = Sim_time.ms 5;
    conn_capacity = 200_000;
    crash_on = (fun _ -> false);
  }

type callbacks = {
  on_established : Conn.t -> unit;
  on_request_done : Conn.t -> Request.t -> unit;
  on_conn_closed : Conn.t -> unit;
  on_conn_reset : Conn.t -> unit;
}

let null_callbacks =
  {
    on_established = (fun _ -> ());
    on_request_done = (fun _ _ -> ());
    on_conn_closed = (fun _ -> ());
    on_conn_reset = (fun _ -> ());
  }

type stats = {
  events_per_wait : Stats.Histogram.t;
  batch_processing : Stats.Histogram.t;
  blocking : Stats.Histogram.t;
  mutable loop_entries : int;
  mutable accepted : int;
  mutable completed : int;
  mutable closed : int;
  mutable resets : int;
  mutable pool_rejects : int;
  mutable spurious_wakeups : int;
  mutable spliced_redirects : int;
}

type state =
  | Init
  | Blocked of { timeout : Sim.handle; wait_started : Sim_time.t }
  | Waking
  | Running
  | Crashed

type t = {
  worker_id : int;
  sim : Sim.t;
  cfg : config;
  ep : Kernel.Epoll.t;
  alloc_fd : unit -> int;
  callbacks : callbacks;
  hermes : Hermes.Runtime.t option;
  listen_socks : (int, Kernel.Socket.t) Hashtbl.t;
  conn_table : Conn.t Conn_table.t; (* fd -> conn, SoA storage *)
  worker_stats : stats;
  mutable state : state;
  mutable synthetic_seq : int;  (* adopt_conn / fault-carrier conn ids *)
  mutable fault_conn : Conn.t option;  (* carrier for injected stalls *)
  mutable epoch : int;  (* invalidates in-flight continuations on crash *)
  (* CPU accounting: [cpu_committed] counts fully elapsed busy time;
     [cur_start, cur_end] is the charge interval in progress, so
     utilization sampling sees partial progress through long charges. *)
  mutable cpu_committed : Sim_time.t;
  mutable cur_start : Sim_time.t;
  mutable cur_end : Sim_time.t;
  mutable busy_outstanding : int;  (* our net contribution to the WST busy cell *)
}

(* Free table slots hold this placeholder instead of a dead
   connection's record, so closed conns (and their inbox contents) are
   collectable immediately. *)
let dummy_conn =
  Conn.make ~id:0 ~fd:0
    ~tuple:{ Netsim.Addr.src_ip = 0; src_port = 0; dst_ip = 0; dst_port = 0 }
    ~tenant_id:(-1) ~worker_id:(-1) ~established:0

let create ~sim ~id ~config ~alloc_fd ~callbacks ?hermes () =
  let ep = Kernel.Epoll.create ~worker_id:id in
  let t =
    {
      worker_id = id;
      sim;
      cfg = config;
      ep;
      alloc_fd;
      callbacks;
      hermes;
      listen_socks = Hashtbl.create 16;
      conn_table = Conn_table.create ~dummy:dummy_conn ~capacity:1024 ();
      (* Per-worker band of a billion-based id space: ids stay unique
         within a device and depend only on (worker, adoption order),
         never on cross-worker or cross-device interleaving — the
         sharded cluster's trace-determinism argument needs that. *)
      synthetic_seq = 1_000_000_000 + (id * 1_000_000);
      worker_stats =
        {
          events_per_wait = Stats.Histogram.create ();
          batch_processing = Stats.Histogram.create ();
          blocking = Stats.Histogram.create ();
          loop_entries = 0;
          accepted = 0;
          completed = 0;
          closed = 0;
          resets = 0;
          pool_rejects = 0;
          spurious_wakeups = 0;
          spliced_redirects = 0;
        };
      state = Init;
      fault_conn = None;
      epoch = 0;
      cpu_committed = 0;
      cur_start = 0;
      cur_end = 0;
      busy_outstanding = 0;
    }
  in
  t

let id t = t.worker_id
let epoll t = t.ep
let stats t = t.worker_stats

let cpu_busy_at t time =
  let in_progress =
    let span = time - t.cur_start in
    let len = t.cur_end - t.cur_start in
    if span < 0 then 0 else if span > len then len else span
  in
  t.cpu_committed + in_progress

let cpu_busy t = cpu_busy_at t (Sim.now t.sim)
let conn_count t = Conn_table.length t.conn_table

(* Sorted by fd (monotonic, so effectively accept order): iteration
   sites — degradation shedding, restart resets — behave independently
   of the table's internal hash order. *)
let conns t =
  Conn_table.fold t.conn_table ~init:[] ~f:(fun acc ~key:_ ~slot ->
      Conn_table.payload t.conn_table slot :: acc)
  |> List.sort (fun (a : Conn.t) b -> compare a.Conn.fd b.Conn.fd)
let is_blocked t = match t.state with Blocked _ -> true | _ -> false
let is_crashed t = t.state = Crashed

let avail_update t =
  match t.hermes with
  | Some rt ->
    Hermes.Metrics.avail_update
      (Hermes.Runtime.hooks rt t.worker_id)
      ~now:(Sim.now t.sim)
  | None -> ()

let busy_add t n =
  if n <> 0 then begin
    t.busy_outstanding <- t.busy_outstanding + n;
    match t.hermes with
    | Some rt -> Hermes.Metrics.busy_count (Hermes.Runtime.hooks rt t.worker_id) n
    | None -> ()
  end

let conn_add t n =
  match t.hermes with
  | Some rt -> Hermes.Metrics.conn_count (Hermes.Runtime.hooks rt t.worker_id) n
  | None -> ()

(* Charge [cost] of CPU to this core, then continue; the continuation
   dies silently if the worker crashed or restarted in the interim. *)
let charge t cost k =
  (* The previous interval necessarily lies in the past: its
     continuation is what led to this call. *)
  t.cpu_committed <- t.cpu_committed + (t.cur_end - t.cur_start);
  let now = Sim.now t.sim in
  t.cur_start <- now;
  t.cur_end <- Sim_time.add now cost;
  let epoch = t.epoch in
  ignore
    (Sim.schedule_after t.sim ~delay:cost (fun () ->
         if t.epoch = epoch && t.state <> Crashed then k ()))

let listen_shared t ~socket =
  let fd = t.alloc_fd () in
  Kernel.Epoll.add_listening t.ep ~fd ~socket ~shared:true;
  Hashtbl.replace t.listen_socks fd socket;
  fd

let listen_dedicated t ~socket =
  let fd = t.alloc_fd () in
  Kernel.Epoll.add_listening t.ep ~fd ~socket ~shared:false;
  Hashtbl.replace t.listen_socks fd socket;
  fd

let do_close t conn final_state =
  Kernel.Epoll.remove_conn t.ep ~fd:conn.Conn.fd;
  ignore (Conn_table.remove t.conn_table conn.Conn.fd);
  conn_add t (-1);
  conn.Conn.state <- final_state;
  if Trace.enabled () then
    Trace.emit
      (Trace.Close
         {
           worker = t.worker_id;
           conn = conn.Conn.id;
           reset = final_state = Conn.Reset;
         });
  match final_state with
  | Conn.Closed ->
    t.worker_stats.closed <- t.worker_stats.closed + 1;
    t.callbacks.on_conn_closed conn
  | Conn.Reset ->
    t.worker_stats.resets <- t.worker_stats.resets + 1;
    t.callbacks.on_conn_reset conn
  | Conn.Established -> assert false

let crash t =
  (match t.state with
  | Blocked { timeout; _ } -> Sim.cancel t.sim timeout
  | Init | Waking | Running | Crashed -> ());
  t.state <- Crashed;
  t.epoch <- t.epoch + 1;
  (* A dead process stops consuming CPU mid-charge. *)
  let now = Sim.now t.sim in
  if t.cur_end > now then t.cur_end <- max t.cur_start now

let run_scheduler t k =
  match t.hermes with
  | None -> k ()
  | Some rt ->
    let outcome =
      Hermes.Runtime.schedule_and_sync rt ~worker:t.worker_id ~now:(Sim.now t.sim)
    in
    let cost =
      Cost.cycles_to_time
        (Hermes.Scheduler.cycles outcome + Hermes.Runtime.syscall_cost_cycles)
    in
    charge t cost k

let rec loop_enter t ~woken =
  match t.state with
  | Crashed -> ()
  | Init | Blocked _ | Waking | Running ->
    t.state <- Running;
    t.worker_stats.loop_entries <- t.worker_stats.loop_entries + 1;
    avail_update t;
    let schedule_first =
      match t.hermes with
      | Some rt -> not (Hermes.Runtime.config rt).Hermes.Config.schedule_at_loop_end
      | None -> false
    in
    if schedule_first then run_scheduler t (fun () -> do_wait t ~woken)
    else do_wait t ~woken

and do_wait t ~woken =
  let wait_started = Sim.now t.sim in
  let events = Kernel.Epoll.wait_poll t.ep ~max_events:t.cfg.max_events in
  match events with
  | [] ->
    if woken then
      t.worker_stats.spurious_wakeups <- t.worker_stats.spurious_wakeups + 1;
    let timeout =
      Sim.schedule_after t.sim ~delay:t.cfg.epoll_timeout (fun () ->
          Stats.Histogram.record t.worker_stats.blocking
            (Sim_time.to_sec_f t.cfg.epoll_timeout *. 1e9);
          Stats.Histogram.record t.worker_stats.events_per_wait 0.0;
          t.state <- Running;
          end_of_loop t)
    in
    t.state <- Blocked { timeout; wait_started }
  | _ :: _ ->
    if not woken then Stats.Histogram.record t.worker_stats.blocking 0.0;
    let total_units =
      List.fold_left (fun acc (e : Kernel.Epoll.event) -> acc + e.units) 0 events
    in
    Stats.Histogram.record t.worker_stats.events_per_wait (float_of_int total_units);
    busy_add t total_units;
    let scan = Kernel.Epoll.last_scan_cost t.ep in
    let poll_cost =
      Sim_time.add Cost.poll_base (scan * Cost.poll_per_shared_listen)
    in
    charge t poll_cost (fun () ->
        let batch_started = Sim.now t.sim in
        process_events t events (fun () ->
            let elapsed = Sim_time.sub (Sim.now t.sim) batch_started in
            Stats.Histogram.record t.worker_stats.batch_processing
              (float_of_int elapsed);
            end_of_loop t))

and end_of_loop t =
  let schedule_last =
    match t.hermes with
    | Some rt -> (Hermes.Runtime.config rt).Hermes.Config.schedule_at_loop_end
    | None -> false
  in
  if schedule_last then run_scheduler t (fun () -> loop_enter t ~woken:false)
  else loop_enter t ~woken:false

and process_events t events k =
  match events with
  | [] -> k ()
  | (ev : Kernel.Epoll.event) :: rest -> (
    match ev.kind with
    | Kernel.Epoll.Accept_ready -> handle_accept t ev.fd ev.units rest k
    | Kernel.Epoll.Readable -> handle_readable t ev.fd ev.units rest k)

(* Drain up to [units] pending connections (multi-accept).  A shared
   queue may have been emptied by another worker in the meantime. *)
and handle_accept t fd units rest k =
  if units <= 0 then process_events t rest k
  else
    let sock = Hashtbl.find t.listen_socks fd in
    match Kernel.Socket.accept sock with
    | None ->
      t.worker_stats.spurious_wakeups <- t.worker_stats.spurious_wakeups + 1;
      busy_add t (-units);
      process_events t rest k
    | Some pending ->
      charge t Cost.accept_cost (fun () ->
          (if Conn_table.length t.conn_table >= t.cfg.conn_capacity then begin
             (* Connection pool exhausted: reject with RST. *)
             t.worker_stats.pool_rejects <- t.worker_stats.pool_rejects + 1;
             let conn =
               Conn.make ~id:pending.Kernel.Socket.seq ~fd:(-1)
                 ~tuple:pending.Kernel.Socket.tuple
                 ~tenant_id:pending.Kernel.Socket.tenant_id ~worker_id:t.worker_id
                 ~established:(Sim.now t.sim)
             in
             conn.Conn.state <- Conn.Reset;
             t.callbacks.on_conn_reset conn
           end
           else begin
             let conn_fd = t.alloc_fd () in
             let conn =
               Conn.make ~id:pending.Kernel.Socket.seq ~fd:conn_fd
                 ~tuple:pending.Kernel.Socket.tuple
                 ~tenant_id:pending.Kernel.Socket.tenant_id ~worker_id:t.worker_id
                 ~established:(Sim.now t.sim)
             in
             Conn_table.add t.conn_table ~key:conn_fd ~aux:0 conn;
             Kernel.Epoll.add_conn t.ep ~fd:conn_fd;
             conn_add t 1;
             t.worker_stats.accepted <- t.worker_stats.accepted + 1;
             if Trace.enabled () then
               Trace.emit
                 (Trace.Accept { worker = t.worker_id; conn = conn.Conn.id });
             t.callbacks.on_established conn
           end);
          busy_add t (-1);
          handle_accept t fd (units - 1) rest k)

and handle_readable t fd units rest k =
  let slot = Conn_table.find_slot t.conn_table fd in
  if slot < 0 then begin
    (* Data raced a close; discard the announced units. *)
    busy_add t (-units);
    process_events t rest k
  end
  else begin
    let conn = Conn_table.payload t.conn_table slot in
    let reqs = Conn.take conn units in
    let missing = units - List.length reqs in
    if missing > 0 then busy_add t (-missing);
    process_requests t conn reqs (fun () -> process_events t rest k)
  end

and process_requests t conn reqs k =
  match reqs with
  | [] -> k ()
  | req :: rest ->
    if not (Conn.is_open conn) then begin
      (* Connection was reset mid-batch; drop the remainder. *)
      busy_add t (-List.length reqs);
      k ()
    end
    else if Request.is_close req then
      charge t Cost.close_cost (fun () ->
          do_close t conn Conn.Closed;
          busy_add t (-1);
          (* Anything after a close marker is discarded. *)
          busy_add t (-List.length rest);
          k ())
    else if t.cfg.crash_on req then
      (* the poison request of section 7: the handler core-dumps *)
      crash t
    else
      charge t req.Request.cost (fun () ->
          conn.Conn.requests_done <- conn.Conn.requests_done + 1;
          t.worker_stats.completed <- t.worker_stats.completed + 1;
          busy_add t (-1);
          t.callbacks.on_request_done conn req;
          process_requests t conn rest k)

let try_wake t =
  match t.state with
  | Blocked { timeout; wait_started } ->
    Sim.cancel t.sim timeout;
    let blocked_for = Sim_time.sub (Sim.now t.sim) wait_started in
    Stats.Histogram.record t.worker_stats.blocking (float_of_int blocked_for);
    t.state <- Waking;
    let epoch = t.epoch in
    ignore
      (Sim.schedule_after t.sim ~delay:Cost.wake_latency (fun () ->
           if t.epoch = epoch && t.state <> Crashed then loop_enter t ~woken:true));
    true
  | Init | Waking | Running | Crashed -> false

let start t =
  match t.state with
  | Init ->
    (* Data arrivals and dedicated-socket accepts resume a blocked
       worker through the epoll wakeup hook. *)
    Kernel.Epoll.set_wakeup t.ep (fun () -> ignore (try_wake t));
    loop_enter t ~woken:false
  | Blocked _ | Waking | Running | Crashed -> ()

let reset_synthetic_ids () = ()

let fresh_synthetic_id t =
  t.synthetic_seq <- t.synthetic_seq + 1;
  t.synthetic_seq

let adopt_conn t ~tenant_id =
  if t.state = Crashed then invalid_arg "Worker.adopt_conn: worker crashed";
  let id = fresh_synthetic_id t in
  let tuple =
    {
      Netsim.Addr.src_ip = 0x0A000001;
      src_port = 40000 + (id mod 20000);
      dst_ip = 0x0A0000FE;
      dst_port = 0;
    }
  in
  let conn_fd = t.alloc_fd () in
  let conn =
    Conn.make ~id ~fd:conn_fd ~tuple ~tenant_id
      ~worker_id:t.worker_id ~established:(Sim.now t.sim)
  in
  Conn_table.add t.conn_table ~key:conn_fd ~aux:0 conn;
  Kernel.Epoll.add_conn t.ep ~fd:conn_fd;
  conn_add t 1;
  t.worker_stats.accepted <- t.worker_stats.accepted + 1;
  conn

(* The splice fast path carries this worker's bytes without entering
   its event loop; the device notes each bypassed chunk here so
   per-worker reports can show how much traffic the kernel absorbed. *)
let note_spliced_redirect t =
  t.worker_stats.spliced_redirects <- t.worker_stats.spliced_redirects + 1

let deliver t conn req =
  if Conn.deliver conn req ~now:(Sim.now t.sim) then begin
    Kernel.Epoll.notify_readable t.ep ~fd:conn.Conn.fd ~units:1;
    true
  end
  else false

(* Fault injection: charge the worker [cost] of synthetic event-loop
   work through the normal epoll/deliver path, so the loop stops
   rotating (no [avail_update]) for the duration exactly as a stuck
   drain or GC pause does in production.  The work arrives on a lazily
   created fault connection that bypasses the accept path and the
   accept/conn-count stats — injections must not look like traffic. *)
let fault_conn t =
  let usable c = Conn.is_open c && Conn_table.mem t.conn_table c.Conn.fd in
  match t.fault_conn with
  | Some c when usable c -> c
  | Some _ | None ->
    let id = fresh_synthetic_id t in
    let tuple =
      {
        Netsim.Addr.src_ip = 0x7F000001;
        src_port = 1;
        dst_ip = 0x7F000001;
        dst_port = 0;
      }
    in
    let conn_fd = t.alloc_fd () in
    let conn =
      Conn.make ~id ~fd:conn_fd ~tuple ~tenant_id:(-1)
        ~worker_id:t.worker_id ~established:(Sim.now t.sim)
    in
    Conn_table.add t.conn_table ~key:conn_fd ~aux:0 conn;
    Kernel.Epoll.add_conn t.ep ~fd:conn_fd;
    (* Counted in the WST conn column (the injected work does occupy a
       connection slot) so the crash/restart repair arithmetic stays
       balanced; accept stats are not touched. *)
    conn_add t 1;
    t.fault_conn <- Some conn;
    conn

let inject_stall t ~req_id ~cost =
  if t.state = Crashed then false
  else
    deliver t (fault_conn t)
      (Request.make ~id:req_id ~op:Request.Websocket_frame ~size:0 ~cost
         ~tenant_id:(-1))

let reset_connection t conn =
  if Conn.is_open conn && Conn_table.mem t.conn_table conn.Conn.fd then
    do_close t conn Conn.Reset

let restart t =
  if t.state = Crashed then begin
    let owned = conns t in
    List.iter
      (fun conn ->
        ignore (Conn_table.remove t.conn_table conn.Conn.fd);
        conn.Conn.state <- Conn.Reset;
        t.worker_stats.resets <- t.worker_stats.resets + 1;
        if Trace.enabled () then
          Trace.emit
            (Trace.Close
               { worker = t.worker_id; conn = conn.Conn.id; reset = true });
        t.callbacks.on_conn_reset conn)
      owned;
    List.iter
      (fun conn -> Kernel.Epoll.remove_conn t.ep ~fd:conn.Conn.fd)
      owned;
    Kernel.Epoll.clear_pending t.ep;
    conn_add t (-List.length owned);
    busy_add t (-t.busy_outstanding);
    t.state <- Init;
    start t
  end
