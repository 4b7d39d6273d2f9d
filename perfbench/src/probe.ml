(* The traced run's [Trace] sink: counts events by kind and keeps the
   inputs the per-layer replay timings need (flow hashes and bitmap
   pushes for [Reuseport.select], WST writes for [Scheduler.run],
   splice chunks for [Splice.decide], raw records for
   [Trace.Binary.sink]).  Kept inputs are capped so a long traced run
   stays small; counts cover every event. *)

(* Growable int buffer. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
end

let kinds =
  [|
    "wq_wake"; "epoll_dispatch"; "sched_filter"; "sched_result"; "map_update";
    "prog_run"; "rp_select"; "rp_drop"; "accept"; "close"; "wst_write";
    "probe_timeout"; "verifier_verdict"; "fault_inject"; "fault_clear";
    "splice_attach"; "splice_redirect"; "splice_teardown";
  |]

let kind_index : Trace.event -> int = function
  | Wq_wake _ -> 0
  | Epoll_dispatch _ -> 1
  | Sched_filter _ -> 2
  | Sched_result _ -> 3
  | Map_update _ -> 4
  | Prog_run _ -> 5
  | Rp_select _ -> 6
  | Rp_drop _ -> 7
  | Accept _ -> 8
  | Close _ -> 9
  | Wst_write _ -> 10
  | Probe_timeout _ -> 11
  | Verifier_verdict _ -> 12
  | Fault_inject _ -> 13
  | Fault_clear _ -> 14
  | Splice_attach _ -> 15
  | Splice_redirect _ -> 16
  | Splice_teardown _ -> 17

let count_of name =
  let rec go i = if String.equal kinds.(i) name then i else go (i + 1) in
  go 0

(* Replay streams are flat int triples (tag, a, b). *)
let max_stream_ops = 400_000
let max_records = 100_000

type t = {
  counts : int array;
  batch_sizes : int array;  (** epoll batches by event count *)
  mutable prog_selects : int;
  mutable copied : int;
  mutable redirected : int;
  select_ops : Buf.t;  (** 0: select flow_hash; 1: M_Sel key := value *)
  sched_ops : Buf.t;  (** 0..2: Wst_write column worker value; 3: run at time *)
  splice_ops : Buf.t;
      (** 0: attach conn (key * 64 + worker); 1: decide conn bytes;
          2: teardown conn *)
  records : Trace.record array;
  mutable n_records : int;
}

let create () =
  {
    counts = Array.make (Array.length kinds) 0;
    batch_sizes = Array.make 1025 0;
    prog_selects = 0;
    copied = 0;
    redirected = 0;
    select_ops = Buf.create ();
    sched_ops = Buf.create ();
    splice_ops = Buf.create ();
    records =
      Array.make max_records { Trace.seq = 0; time = 0; event = Trace.Rp_drop { port = 0; flow_hash = 0 } };
    n_records = 0;
  }

let op buf tag a b =
  if Buf.length buf < 3 * max_stream_ops then begin
    Buf.push buf tag;
    Buf.push buf a;
    Buf.push buf b
  end

let feed t (r : Trace.record) =
  let k = kind_index r.event in
  t.counts.(k) <- t.counts.(k) + 1;
  if t.n_records < max_records then begin
    t.records.(t.n_records) <- r;
    t.n_records <- t.n_records + 1
  end;
  match r.event with
  | Epoll_dispatch { events; _ } ->
    let n = min 1024 (List.length events) in
    t.batch_sizes.(n) <- t.batch_sizes.(n) + 1
  | Rp_select { flow_hash; via; _ } ->
    if via = Trace.Prog then t.prog_selects <- t.prog_selects + 1;
    op t.select_ops 0 flow_hash 0
  | Map_update { map = "M_Sel"; key; value } ->
    op t.select_ops 1 key (Int64.to_int value)
  | Wst_write { worker; column; value } ->
    let tag = match column with Avail -> 0 | Busy -> 1 | Conn -> 2 in
    op t.sched_ops tag worker value
  | Sched_result _ -> op t.sched_ops 3 r.time 0
  | Splice_attach { conn; key; worker } ->
    op t.splice_ops 0 conn ((key * 64) + worker)
  | Splice_redirect { conn; bytes; copied; _ } ->
    t.redirected <- t.redirected + bytes;
    t.copied <- t.copied + copied;
    op t.splice_ops 1 conn bytes
  | Splice_teardown { conn; _ } -> op t.splice_ops 2 conn 0
  | _ -> ()

let sink t = { Trace.write = feed t; close = ignore }
let count t name = t.counts.(count_of name)
let total t = Array.fold_left ( + ) 0 t.counts

(* Median epoll batch size. *)
let batch_p50 t =
  let n = Array.fold_left ( + ) 0 t.batch_sizes in
  if n = 0 then 0
  else
    let want = Pct.rank ~n 50.0 in
    let rec go i seen =
      let seen = seen + t.batch_sizes.(i) in
      if seen >= want then i else go (i + 1) seen
    in
    go 0 0

(* --- replays ---------------------------------------------------------- *)

(* Host ns per operation of [op] replayed over a stream: the stream is
   run with and without the timed operation and the difference is
   divided by the operation count, so the bookkeeping between
   operations (map updates, WST writes, attaches) is not charged to
   it.  The median of [rounds] such pairs is reported. *)
let differential ~rounds ~ops ~with_op ~without_op =
  if ops = 0 then 0.0
  else begin
    let diffs =
      Array.init rounds (fun _ ->
          let t0 = Clock.now_ns () in
          without_op ();
          let t1 = Clock.now_ns () in
          with_op ();
          let t2 = Clock.now_ns () in
          float_of_int (t2 - t1 - (t1 - t0)))
    in
    Float.max 0.0 (Pct.median diffs /. float_of_int ops)
  end

let rounds = 5

(* Selections replay on one port's group of [Mix.workers] sockets,
   with the Hermes dispatch program attached when the workload runs
   one; recorded M_Sel pushes are applied in order between them. *)
let select_host_ns t ~attach_prog =
  let port = 20000 in
  let ops = t.select_ops in
  let n = Buf.length ops / 3 in
  let selects = ref 0 in
  for i = 0 to n - 1 do
    if Buf.get ops (3 * i) = 0 then incr selects
  done;
  let rt = Hermes.Runtime.create ~config:Hermes.Config.default ~workers:Mix.workers () in
  let group = Kernel.Reuseport.create ~port ~slots:Mix.workers in
  let sockarray = Kernel.Ebpf_maps.Sockarray.create ~name:"M_socket" ~size:Mix.workers in
  for w = 0 to Mix.workers - 1 do
    let socket = Kernel.Socket.create_listen ~id:w ~port ~backlog:1024 () in
    Kernel.Reuseport.bind group ~slot:w ~socket;
    Kernel.Ebpf_maps.Sockarray.set sockarray w socket
  done;
  if attach_prog then
    Kernel.Reuseport.attach_ebpf group
      (Kernel.Ebpf.verify_exn (Hermes.Runtime.make_prog rt ~m_socket:sockarray));
  let m_sel = Hermes.Groups.m_sel (Hermes.Runtime.groups rt) in
  let pass ~select () =
    for i = 0 to n - 1 do
      let a = Buf.get ops ((3 * i) + 1) in
      if Buf.get ops (3 * i) = 0 then begin
        if select then ignore (Kernel.Reuseport.select group ~flow_hash:a)
      end
      else
        Kernel.Ebpf_maps.Array_map.kernel_update m_sel a
          (Int64.of_int (Buf.get ops ((3 * i) + 2)))
    done
  in
  differential ~rounds ~ops:!selects ~with_op:(pass ~select:true)
    ~without_op:(pass ~select:false)

let sched_host_ns t =
  let ops = t.sched_ops in
  let n = Buf.length ops / 3 in
  let runs = ref 0 in
  for i = 0 to n - 1 do
    if Buf.get ops (3 * i) = 3 then incr runs
  done;
  let config = Hermes.Config.default in
  let scratch = Hermes.Scheduler.make_scratch () in
  let pass ~run () =
    let wst = Hermes.Wst.create ~workers:Mix.workers in
    for i = 0 to n - 1 do
      let a = Buf.get ops ((3 * i) + 1) and b = Buf.get ops ((3 * i) + 2) in
      match Buf.get ops (3 * i) with
      | 0 -> Hermes.Wst.set_avail wst a ~now:b
      | 1 -> Hermes.Wst.add_busy wst a (b - Hermes.Wst.busy wst a)
      | 2 -> Hermes.Wst.add_conn wst a (b - Hermes.Wst.conn wst a)
      | _ -> if run then Hermes.Scheduler.run scratch ~config ~wst ~now:a
    done
  in
  differential ~rounds ~ops:!runs ~with_op:(pass ~run:true)
    ~without_op:(pass ~run:false)

(* Chunks are replayed against the slot their connection was attached
   under: a key below the map size is its own masked flow hash. *)
let splice_decide_host_ns t ~copy =
  let ops = t.splice_ops in
  let n = Buf.length ops / 3 in
  let decides = ref 0 in
  for i = 0 to n - 1 do
    if Buf.get ops (3 * i) = 1 then incr decides
  done;
  let pass ~decide () =
    let sp = Lb.Splice.create ~workers:Mix.workers ~copy () in
    let keys = Hashtbl.create 4096 in
    for i = 0 to n - 1 do
      let conn = Buf.get ops ((3 * i) + 1) and b = Buf.get ops ((3 * i) + 2) in
      match Buf.get ops (3 * i) with
      | 0 ->
        Hashtbl.replace keys conn (b / 64);
        ignore (Lb.Splice.attach sp ~conn ~flow_hash:(b / 64) ~worker:(b mod 64))
      | 1 -> (
        match Hashtbl.find_opt keys conn with
        | Some flow_hash when decide ->
          ignore (Lb.Splice.decide sp ~conn ~flow_hash ~dst_port:20000 ~bytes:b)
        | _ -> ())
      | _ ->
        Hashtbl.remove keys conn;
        ignore (Lb.Splice.teardown sp ~conn)
    done
  in
  differential ~rounds ~ops:!decides ~with_op:(pass ~decide:true)
    ~without_op:(pass ~decide:false)

let binary_host_ns_per_event t ~path =
  if t.n_records = 0 then 0.0
  else begin
    let once () =
      let oc = open_out_bin path in
      let sink = Trace.Binary.sink oc in
      let t0 = Clock.now_ns () in
      for i = 0 to t.n_records - 1 do
        sink.Trace.write t.records.(i)
      done;
      sink.Trace.close ();
      let dt = Clock.now_ns () - t0 in
      close_out oc;
      float_of_int dt
    in
    let samples = Array.init rounds (fun _ -> once ()) in
    Sys.remove path;
    Pct.median samples /. float_of_int t.n_records
  end
