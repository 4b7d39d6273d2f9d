type policy = Lifo | Rr | All | Fifo
type via = Prog | Hash
type column = Avail | Busy | Conn
type io = Accept_io | Read_io

type event =
  | Wq_wake of { policy : policy; queue : int list; woken : int list; steps : int }
  | Epoll_dispatch of { worker : int; events : (int * io * int) list }
  | Sched_filter of { stage : string; cutoff : float; survivors : int64; live : int }
  | Sched_result of { bitmap : int64; passed : int; total : int; after_time : int }
  | Map_update of { map : string; key : int; value : int64 }
  | Prog_run of { prog : string; flow_hash : int; outcome : string; cycles : int }
  | Rp_select of { port : int; flow_hash : int; via : via; slot : int }
  | Rp_drop of { port : int; flow_hash : int }
  | Accept of { worker : int; conn : int }
  | Close of { worker : int; conn : int; reset : bool }
  | Wst_write of { worker : int; column : column; value : int }
  | Probe_timeout of { tenant : int; after : int }
  | Verifier_verdict of {
      prog : string;
      backend : string;
      accepted : bool;
      insns : int;
      visited : int;
      proved : int;
      residual : int;
      reason : string;
    }
  | Fault_inject of { fault : string; worker : int; arg : int }
  | Fault_clear of { fault : string; worker : int }
  | Splice_attach of { conn : int; worker : int; key : int }
  | Splice_redirect of { conn : int; worker : int; bytes : int; copied : int }
  | Splice_teardown of { conn : int; worker : int; key : int; reason : string }

type record = { seq : int; time : int; event : event }

type sink = { write : record -> unit; close : unit -> unit }

(* ------------------------------------------------------------------ *)
(* Recorder state (tracepoint style: one sink per execution context)    *)

(* The recorder state is domain-local rather than a plain global so
   that simulation shards running on different OCaml domains record
   into disjoint sinks without synchronisation; [swap_state] further
   lets one domain multiplex several logical shards (each owning its
   own sink, sequence counter and clock) over the same domain-local
   slot.  Single-domain programs see exactly the old one-global-sink
   behaviour. *)

type state = {
  mutable active : sink option;
  mutable seq_counter : int;
  mutable clock : int;
}

let fresh_state () = { active = None; seq_counter = 0; clock = 0 }
let state_key = Domain.DLS.new_key fresh_state
let st () = Domain.DLS.get state_key

(* Process-wide count of states holding a live sink.  [enabled],
   [set_now] and [emit] sit on per-select / per-event hot paths where
   the domain-local lookup alone costs a few ns; when nothing in the
   whole process is tracing (every benchmark fast path), this gate
   reduces them to one atomic load.  The count is conservative: a
   shard state whose ring outlives its shard keeps it positive, which
   only means those processes keep paying the domain-local lookup —
   never that a record is lost.

   Concurrency primitives go through the shim ([A.get] is the same
   "%atomic_load" primitive, so the fast path is still one inlined
   atomic load); the publication protocol itself — count incremented
   in [make_state] before the state is ever visible to a domain,
   decremented only by [uninstall] — is model-checked by the
   [trace_publication] harness in [Mcheck.Scenarios]. *)
module A = Mcheck_shim.Real.Atomic

let active_sinks = A.make ~name:"trace.active_sinks" 0

let make_state sink =
  (match sink with None -> () | Some _ -> A.incr active_sinks);
  { active = sink; seq_counter = 0; clock = 0 }

let swap_state s =
  let cur = Domain.DLS.get state_key in
  Domain.DLS.set state_key s;
  cur

let enabled () =
  A.get active_sinks > 0
  && match (st ()).active with None -> false | Some _ -> true

let set_now t = if A.get active_sinks > 0 then (st ()).clock <- t
let now () = (st ()).clock

let emit ev =
  if A.get active_sinks > 0 then begin
    let s = st () in
    match s.active with
    | None -> ()
    | Some sink ->
      sink.write { seq = s.seq_counter; time = s.clock; event = ev };
      s.seq_counter <- s.seq_counter + 1
  end

let uninstall () =
  let s = st () in
  match s.active with
  | None -> ()
  | Some sink ->
    s.active <- None;
    A.decr active_sinks;
    sink.close ()

let install sink =
  uninstall ();
  let s = st () in
  s.seq_counter <- 0;
  s.clock <- 0;
  s.active <- Some sink;
  A.incr active_sinks

let with_sink s f =
  install s;
  Fun.protect ~finally:uninstall f

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                          *)

module Ring = struct
  type buffer = {
    buf : record array;
    mutable next : int;
    mutable stored : int;
    mutable lost : int;
  }

  type t = buffer

  let dummy = { seq = -1; time = 0; event = Rp_drop { port = 0; flow_hash = 0 } }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity must be positive";
    { buf = Array.make capacity dummy; next = 0; stored = 0; lost = 0 }

  let capacity t = Array.length t.buf

  let write t r =
    let cap = Array.length t.buf in
    if t.stored = cap then t.lost <- t.lost + 1 else t.stored <- t.stored + 1;
    t.buf.(t.next) <- r;
    t.next <- (t.next + 1) mod cap

  let length t = t.stored
  let dropped t = t.lost

  let records t =
    let cap = Array.length t.buf in
    List.init t.stored (fun i ->
        t.buf.((t.next - t.stored + i + cap + cap) mod cap))

  let clear t =
    t.next <- 0;
    t.stored <- 0;
    t.lost <- 0
end

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let policy_name = function Lifo -> "lifo" | Rr -> "rr" | All -> "all" | Fifo -> "fifo"
let via_name = function Prog -> "prog" | Hash -> "hash"
let column_name = function Avail -> "avail" | Busy -> "busy" | Conn -> "conn"
let io_name = function Accept_io -> "accept" | Read_io -> "read"

let ids l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let io_events l =
  "["
  ^ String.concat ","
      (List.map (fun (fd, k, units) -> Printf.sprintf "%d:%s*%d" fd (io_name k) units) l)
  ^ "]"

let render_event = function
  | Wq_wake { policy; queue; woken; steps } ->
    Printf.sprintf "wq.wake policy=%s queue=%s woken=%s steps=%d" (policy_name policy)
      (ids queue) (ids woken) steps
  | Epoll_dispatch { worker; events } ->
    Printf.sprintf "epoll.dispatch worker=%d events=%s" worker (io_events events)
  | Sched_filter { stage; cutoff; survivors; live } ->
    Printf.sprintf "sched.filter stage=%s cutoff=%.2f survivors=0x%Lx live=%d" stage
      cutoff survivors live
  | Sched_result { bitmap; passed; total; after_time } ->
    Printf.sprintf "sched.result bitmap=0x%Lx passed=%d/%d after_time=%d" bitmap passed
      total after_time
  | Map_update { map; key; value } ->
    Printf.sprintf "ebpf.map_update map=%s key=%d value=0x%Lx" map key value
  | Prog_run { prog; flow_hash; outcome; cycles } ->
    Printf.sprintf "ebpf.run prog=%s hash=0x%x outcome=%s cycles=%d" prog flow_hash
      outcome cycles
  | Rp_select { port; flow_hash; via; slot } ->
    Printf.sprintf "reuseport.select port=%d hash=0x%x via=%s slot=%d" port flow_hash
      (via_name via) slot
  | Rp_drop { port; flow_hash } ->
    Printf.sprintf "reuseport.drop port=%d hash=0x%x" port flow_hash
  | Accept { worker; conn } -> Printf.sprintf "worker.accept worker=%d conn=%d" worker conn
  | Close { worker; conn; reset } ->
    Printf.sprintf "worker.close worker=%d conn=%d reset=%b" worker conn reset
  | Wst_write { worker; column; value } ->
    Printf.sprintf "wst.write worker=%d col=%s value=%d" worker (column_name column) value
  | Probe_timeout { tenant; after } ->
    Printf.sprintf "probe.timeout tenant=%d after=%d" tenant after
  | Verifier_verdict { prog; backend; accepted; insns; visited; proved; residual; reason } ->
    Printf.sprintf
      "verifier.verdict prog=%s backend=%s accepted=%b insns=%d visited=%d \
       proved=%d residual=%d reason=%s"
      prog backend accepted insns visited proved residual
      (if reason = "" then "-" else reason)
  | Fault_inject { fault; worker; arg } ->
    Printf.sprintf "fault.inject kind=%s worker=%d arg=%d" fault worker arg
  | Fault_clear { fault; worker } ->
    Printf.sprintf "fault.clear kind=%s worker=%d" fault worker
  | Splice_attach { conn; worker; key } ->
    Printf.sprintf "splice.attach conn=%d worker=%d key=%d" conn worker key
  | Splice_redirect { conn; worker; bytes; copied } ->
    Printf.sprintf "splice.redirect conn=%d worker=%d bytes=%d copied=%d" conn
      worker bytes copied
  | Splice_teardown { conn; worker; key; reason } ->
    Printf.sprintf "splice.teardown conn=%d worker=%d key=%d reason=%s" conn
      worker key reason

let render r = Printf.sprintf "%10d %s" r.time (render_event r.event)

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

(* RFC 8259 string escaping: backslash and double-quote get
   two-character escapes, control characters the conventional short
   forms or \u00XX.  Event strings are normally tame identifiers, but
   fault names and verifier reasons are arbitrary — an unescaped
   backslash or newline would corrupt the whole JSONL line. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
let json_ids l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let json_fields = function
  | Wq_wake { policy; queue; woken; steps } ->
    Printf.sprintf "\"policy\":%s,\"queue\":%s,\"woken\":%s,\"steps\":%d"
      (json_string (policy_name policy))
      (json_ids queue) (json_ids woken) steps
  | Epoll_dispatch { worker; events } ->
    Printf.sprintf "\"worker\":%d,\"events\":[%s]" worker
      (String.concat ","
         (List.map
            (fun (fd, k, units) ->
              Printf.sprintf "{\"fd\":%d,\"kind\":%s,\"units\":%d}" fd
                (json_string (io_name k)) units)
            events))
  | Sched_filter { stage; cutoff; survivors; live } ->
    Printf.sprintf "\"stage\":%s,\"cutoff\":%.2f,\"survivors\":\"0x%Lx\",\"live\":%d"
      (json_string stage) cutoff survivors live
  | Sched_result { bitmap; passed; total; after_time } ->
    Printf.sprintf "\"bitmap\":\"0x%Lx\",\"passed\":%d,\"total\":%d,\"after_time\":%d"
      bitmap passed total after_time
  | Map_update { map; key; value } ->
    Printf.sprintf "\"map\":%s,\"key\":%d,\"value\":\"0x%Lx\"" (json_string map) key value
  | Prog_run { prog; flow_hash; outcome; cycles } ->
    Printf.sprintf "\"prog\":%s,\"hash\":%d,\"outcome\":%s,\"cycles\":%d"
      (json_string prog) flow_hash (json_string outcome) cycles
  | Rp_select { port; flow_hash; via; slot } ->
    Printf.sprintf "\"port\":%d,\"hash\":%d,\"via\":%s,\"slot\":%d" port flow_hash
      (json_string (via_name via)) slot
  | Rp_drop { port; flow_hash } -> Printf.sprintf "\"port\":%d,\"hash\":%d" port flow_hash
  | Accept { worker; conn } -> Printf.sprintf "\"worker\":%d,\"conn\":%d" worker conn
  | Close { worker; conn; reset } ->
    Printf.sprintf "\"worker\":%d,\"conn\":%d,\"reset\":%b" worker conn reset
  | Wst_write { worker; column; value } ->
    Printf.sprintf "\"worker\":%d,\"col\":%s,\"value\":%d" worker
      (json_string (column_name column)) value
  | Probe_timeout { tenant; after } ->
    Printf.sprintf "\"tenant\":%d,\"after\":%d" tenant after
  | Verifier_verdict { prog; backend; accepted; insns; visited; proved; residual; reason } ->
    Printf.sprintf
      "\"prog\":%s,\"backend\":%s,\"accepted\":%b,\"insns\":%d,\"visited\":%d,\"proved\":%d,\"residual\":%d,\"reason\":%s"
      (json_string prog) (json_string backend) accepted insns visited proved
      residual (json_string reason)
  | Fault_inject { fault; worker; arg } ->
    Printf.sprintf "\"kind\":%s,\"worker\":%d,\"arg\":%d" (json_string fault)
      worker arg
  | Fault_clear { fault; worker } ->
    Printf.sprintf "\"kind\":%s,\"worker\":%d" (json_string fault) worker
  | Splice_attach { conn; worker; key } ->
    Printf.sprintf "\"conn\":%d,\"worker\":%d,\"key\":%d" conn worker key
  | Splice_redirect { conn; worker; bytes; copied } ->
    Printf.sprintf "\"conn\":%d,\"worker\":%d,\"bytes\":%d,\"copied\":%d" conn
      worker bytes copied
  | Splice_teardown { conn; worker; key; reason } ->
    Printf.sprintf "\"conn\":%d,\"worker\":%d,\"key\":%d,\"reason\":%s" conn
      worker key (json_string reason)

let event_name = function
  | Wq_wake _ -> "wq.wake"
  | Epoll_dispatch _ -> "epoll.dispatch"
  | Sched_filter _ -> "sched.filter"
  | Sched_result _ -> "sched.result"
  | Map_update _ -> "ebpf.map_update"
  | Prog_run _ -> "ebpf.run"
  | Rp_select _ -> "reuseport.select"
  | Rp_drop _ -> "reuseport.drop"
  | Accept _ -> "worker.accept"
  | Close _ -> "worker.close"
  | Wst_write _ -> "wst.write"
  | Probe_timeout _ -> "probe.timeout"
  | Verifier_verdict _ -> "verifier.verdict"
  | Fault_inject _ -> "fault.inject"
  | Fault_clear _ -> "fault.clear"
  | Splice_attach _ -> "splice.attach"
  | Splice_redirect _ -> "splice.redirect"
  | Splice_teardown _ -> "splice.teardown"

let json_of_record r =
  Printf.sprintf "{\"seq\":%d,\"t\":%d,\"ev\":%s,%s}" r.seq r.time
    (json_string (event_name r.event))
    (json_fields r.event)

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)

let ring_sink ring = { write = (fun r -> Ring.write ring r); close = (fun () -> ()) }

let jsonl_sink oc =
  {
    write =
      (fun r ->
        output_string oc (json_of_record r);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let text_sink oc =
  {
    write =
      (fun r ->
        output_string oc (render r);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

(* ------------------------------------------------------------------ *)
(* Compact binary trace format                                          *)

module Binary = struct
  (* Append-only little-endian 64-bit-word stream: an 8-byte magic,
     then framed records

         word0 = event tag (bits 0..7) | payload word count (bits 8..)
         word1 = seq   (tag 0: intern id)
         word2 = time  (tag 0: string byte length)
         payload words

     Strings are interned: the first use of each distinct string emits
     a tag-0 definition record (zero-padded raw bytes), and events
     refer to strings by id.  Fixed-width framing keeps the stream
     mmap-able and seekable without parsing: any reader can skip a
     record from its header alone.  A JSONL trace line runs ~120-250
     bytes; the binary form of the same event is 3-9 words. *)

  let magic = "HTRCBIN1"

  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

  let policy_code = function Lifo -> 0 | Rr -> 1 | All -> 2 | Fifo -> 3

  let policy_of_code = function
    | 0 -> Lifo
    | 1 -> Rr
    | 2 -> All
    | 3 -> Fifo
    | n -> corrupt "bad policy code %d" n

  let via_code = function Prog -> 0 | Hash -> 1
  let via_of_code = function 0 -> Prog | 1 -> Hash | n -> corrupt "bad via code %d" n
  let column_code = function Avail -> 0 | Busy -> 1 | Conn -> 2

  let column_of_code = function
    | 0 -> Avail
    | 1 -> Busy
    | 2 -> Conn
    | n -> corrupt "bad column code %d" n

  let io_code = function Accept_io -> 0 | Read_io -> 1
  let io_of_code = function 0 -> Accept_io | 1 -> Read_io | n -> corrupt "bad io code %d" n

  let bool_of_word = function 0 -> false | 1 -> true | n -> corrupt "bad bool word %d" n

  (* ---------------- writer ---------------- *)

  type writer = {
    oc : out_channel;
    mutable scratch : Bytes.t;  (* reused per record; grown on demand *)
    interned : (string, int) Hashtbl.t;
    mutable next_string : int;
  }

  let ensure w len =
    if Bytes.length w.scratch < len then begin
      let cap = ref (Bytes.length w.scratch) in
      while !cap < len do
        cap := !cap * 2
      done;
      w.scratch <- Bytes.create !cap
    end

  let header w ~tag ~nwords ~w1 ~w2 =
    ensure w ((3 + nwords) * 8);
    Bytes.set_int64_le w.scratch 0 (Int64.of_int (tag lor (nwords lsl 8)));
    Bytes.set_int64_le w.scratch 8 (Int64.of_int w1);
    Bytes.set_int64_le w.scratch 16 (Int64.of_int w2)

  let put w i v = Bytes.set_int64_le w.scratch (24 + (i * 8)) (Int64.of_int v)
  let put64 w i v = Bytes.set_int64_le w.scratch (24 + (i * 8)) v
  let flush_record w ~nwords = output w.oc w.scratch 0 ((3 + nwords) * 8)

  let intern w s =
    match Hashtbl.find_opt w.interned s with
    | Some id -> id
    | None ->
      let id = w.next_string in
      w.next_string <- id + 1;
      Hashtbl.add w.interned s id;
      let len = String.length s in
      let nwords = (len + 7) / 8 in
      header w ~tag:0 ~nwords ~w1:id ~w2:len;
      if nwords > 0 then Bytes.fill w.scratch 24 (nwords * 8) '\000';
      Bytes.blit_string s 0 w.scratch 24 len;
      flush_record w ~nwords;
      id

  let write_record w { seq; time; event } =
    match event with
    | Wq_wake { policy; queue; woken; steps } ->
      let ql = List.length queue and wl = List.length woken in
      let nwords = 4 + ql + wl in
      header w ~tag:1 ~nwords ~w1:seq ~w2:time;
      put w 0 (policy_code policy);
      put w 1 steps;
      put w 2 ql;
      List.iteri (fun i x -> put w (3 + i) x) queue;
      put w (3 + ql) wl;
      List.iteri (fun i x -> put w (4 + ql + i) x) woken;
      flush_record w ~nwords
    | Epoll_dispatch { worker; events } ->
      let n = List.length events in
      let nwords = 2 + (3 * n) in
      header w ~tag:2 ~nwords ~w1:seq ~w2:time;
      put w 0 worker;
      put w 1 n;
      List.iteri
        (fun i (fd, k, units) ->
          put w (2 + (3 * i)) fd;
          put w (3 + (3 * i)) (io_code k);
          put w (4 + (3 * i)) units)
        events;
      flush_record w ~nwords
    | Sched_filter { stage; cutoff; survivors; live } ->
      let stage_id = intern w stage in
      header w ~tag:3 ~nwords:4 ~w1:seq ~w2:time;
      put w 0 stage_id;
      put64 w 1 (Int64.bits_of_float cutoff);
      put64 w 2 survivors;
      put w 3 live;
      flush_record w ~nwords:4
    | Sched_result { bitmap; passed; total; after_time } ->
      header w ~tag:4 ~nwords:4 ~w1:seq ~w2:time;
      put64 w 0 bitmap;
      put w 1 passed;
      put w 2 total;
      put w 3 after_time;
      flush_record w ~nwords:4
    | Map_update { map; key; value } ->
      let map_id = intern w map in
      header w ~tag:5 ~nwords:3 ~w1:seq ~w2:time;
      put w 0 map_id;
      put w 1 key;
      put64 w 2 value;
      flush_record w ~nwords:3
    | Prog_run { prog; flow_hash; outcome; cycles } ->
      let prog_id = intern w prog in
      let outcome_id = intern w outcome in
      header w ~tag:6 ~nwords:4 ~w1:seq ~w2:time;
      put w 0 prog_id;
      put w 1 flow_hash;
      put w 2 outcome_id;
      put w 3 cycles;
      flush_record w ~nwords:4
    | Rp_select { port; flow_hash; via; slot } ->
      header w ~tag:7 ~nwords:4 ~w1:seq ~w2:time;
      put w 0 port;
      put w 1 flow_hash;
      put w 2 (via_code via);
      put w 3 slot;
      flush_record w ~nwords:4
    | Rp_drop { port; flow_hash } ->
      header w ~tag:8 ~nwords:2 ~w1:seq ~w2:time;
      put w 0 port;
      put w 1 flow_hash;
      flush_record w ~nwords:2
    | Accept { worker; conn } ->
      header w ~tag:9 ~nwords:2 ~w1:seq ~w2:time;
      put w 0 worker;
      put w 1 conn;
      flush_record w ~nwords:2
    | Close { worker; conn; reset } ->
      header w ~tag:10 ~nwords:3 ~w1:seq ~w2:time;
      put w 0 worker;
      put w 1 conn;
      put w 2 (if reset then 1 else 0);
      flush_record w ~nwords:3
    | Wst_write { worker; column; value } ->
      header w ~tag:11 ~nwords:3 ~w1:seq ~w2:time;
      put w 0 worker;
      put w 1 (column_code column);
      put w 2 value;
      flush_record w ~nwords:3
    | Probe_timeout { tenant; after } ->
      header w ~tag:12 ~nwords:2 ~w1:seq ~w2:time;
      put w 0 tenant;
      put w 1 after;
      flush_record w ~nwords:2
    | Verifier_verdict { prog; backend; accepted; insns; visited; proved; residual; reason }
      ->
      let prog_id = intern w prog in
      let backend_id = intern w backend in
      let reason_id = intern w reason in
      header w ~tag:13 ~nwords:8 ~w1:seq ~w2:time;
      put w 0 prog_id;
      put w 1 backend_id;
      put w 2 (if accepted then 1 else 0);
      put w 3 insns;
      put w 4 visited;
      put w 5 proved;
      put w 6 residual;
      put w 7 reason_id;
      flush_record w ~nwords:8
    | Fault_inject { fault; worker; arg } ->
      let fault_id = intern w fault in
      header w ~tag:14 ~nwords:3 ~w1:seq ~w2:time;
      put w 0 fault_id;
      put w 1 worker;
      put w 2 arg;
      flush_record w ~nwords:3
    | Fault_clear { fault; worker } ->
      let fault_id = intern w fault in
      header w ~tag:15 ~nwords:2 ~w1:seq ~w2:time;
      put w 0 fault_id;
      put w 1 worker;
      flush_record w ~nwords:2
    | Splice_attach { conn; worker; key } ->
      header w ~tag:16 ~nwords:3 ~w1:seq ~w2:time;
      put w 0 conn;
      put w 1 worker;
      put w 2 key;
      flush_record w ~nwords:3
    | Splice_redirect { conn; worker; bytes; copied } ->
      header w ~tag:17 ~nwords:4 ~w1:seq ~w2:time;
      put w 0 conn;
      put w 1 worker;
      put w 2 bytes;
      put w 3 copied;
      flush_record w ~nwords:4
    | Splice_teardown { conn; worker; key; reason } ->
      let reason_id = intern w reason in
      header w ~tag:18 ~nwords:4 ~w1:seq ~w2:time;
      put w 0 conn;
      put w 1 worker;
      put w 2 key;
      put w 3 reason_id;
      flush_record w ~nwords:4

  let sink oc =
    output_string oc magic;
    let w =
      { oc; scratch = Bytes.create 512; interned = Hashtbl.create 64; next_string = 0 }
    in
    { write = (fun r -> write_record w r); close = (fun () -> flush oc) }

  (* ---------------- decoder ---------------- *)

  let iter_channel ic f =
    let hdr = Bytes.create 24 in
    (try really_input ic hdr 0 8
     with End_of_file -> corrupt "truncated file: missing magic");
    if Bytes.sub_string hdr 0 8 <> magic then
      corrupt "bad magic %S (want %S)" (Bytes.sub_string hdr 0 8) magic;
    let strings = Hashtbl.create 64 in
    let payload = ref (Bytes.create 512) in
    let finished = ref false in
    while not !finished do
      (* A record boundary is the only place clean EOF is legal. *)
      let n = input ic hdr 0 24 in
      if n = 0 then finished := true
      else begin
        (try really_input ic hdr n (24 - n)
         with End_of_file -> corrupt "truncated record header");
        let w0 = Int64.to_int (Bytes.get_int64_le hdr 0) in
        let tag = w0 land 0xff in
        let nwords = w0 lsr 8 in
        if nwords < 0 || nwords > 0xFFFFFF then
          corrupt "implausible record size (%d words)" nwords;
        let w1 = Int64.to_int (Bytes.get_int64_le hdr 8) in
        let w2 = Int64.to_int (Bytes.get_int64_le hdr 16) in
        if Bytes.length !payload < nwords * 8 then
          payload := Bytes.create (nwords * 8);
        (try really_input ic !payload 0 (nwords * 8)
         with End_of_file -> corrupt "truncated record payload (tag %d)" tag);
        let word i =
          if i < 0 || i >= nwords then
            corrupt "record payload overrun (tag %d, word %d of %d)" tag i nwords;
          Bytes.get_int64_le !payload (i * 8)
        in
        let wi i = Int64.to_int (word i) in
        let str i =
          let id = wi i in
          match Hashtbl.find_opt strings id with
          | Some s -> s
          | None -> corrupt "undefined string id %d" id
        in
        let exact n = if nwords <> n then corrupt "tag %d: %d words, want %d" tag nwords n in
        let list_len i =
          let n = wi i in
          if n < 0 || n > nwords then corrupt "bad list length %d" n;
          n
        in
        if tag = 0 then begin
          if w2 < 0 || (w2 + 7) / 8 <> nwords then
            corrupt "string def: %d bytes in %d words" w2 nwords;
          Hashtbl.replace strings w1 (Bytes.sub_string !payload 0 w2)
        end
        else begin
          let event =
            match tag with
            | 1 ->
              let policy = policy_of_code (wi 0) in
              let steps = wi 1 in
              let ql = list_len 2 in
              let queue = List.init ql (fun i -> wi (3 + i)) in
              let wl = list_len (3 + ql) in
              let woken = List.init wl (fun i -> wi (4 + ql + i)) in
              exact (4 + ql + wl);
              Wq_wake { policy; queue; woken; steps }
            | 2 ->
              let worker = wi 0 in
              let n = list_len 1 in
              let events =
                List.init n (fun i ->
                    (wi (2 + (3 * i)), io_of_code (wi (3 + (3 * i))), wi (4 + (3 * i))))
              in
              exact (2 + (3 * n));
              Epoll_dispatch { worker; events }
            | 3 ->
              exact 4;
              Sched_filter
                {
                  stage = str 0;
                  cutoff = Int64.float_of_bits (word 1);
                  survivors = word 2;
                  live = wi 3;
                }
            | 4 ->
              exact 4;
              Sched_result
                { bitmap = word 0; passed = wi 1; total = wi 2; after_time = wi 3 }
            | 5 ->
              exact 3;
              Map_update { map = str 0; key = wi 1; value = word 2 }
            | 6 ->
              exact 4;
              Prog_run
                { prog = str 0; flow_hash = wi 1; outcome = str 2; cycles = wi 3 }
            | 7 ->
              exact 4;
              Rp_select
                { port = wi 0; flow_hash = wi 1; via = via_of_code (wi 2); slot = wi 3 }
            | 8 ->
              exact 2;
              Rp_drop { port = wi 0; flow_hash = wi 1 }
            | 9 ->
              exact 2;
              Accept { worker = wi 0; conn = wi 1 }
            | 10 ->
              exact 3;
              Close { worker = wi 0; conn = wi 1; reset = bool_of_word (wi 2) }
            | 11 ->
              exact 3;
              Wst_write { worker = wi 0; column = column_of_code (wi 1); value = wi 2 }
            | 12 ->
              exact 2;
              Probe_timeout { tenant = wi 0; after = wi 1 }
            | 13 ->
              exact 8;
              Verifier_verdict
                {
                  prog = str 0;
                  backend = str 1;
                  accepted = bool_of_word (wi 2);
                  insns = wi 3;
                  visited = wi 4;
                  proved = wi 5;
                  residual = wi 6;
                  reason = str 7;
                }
            | 14 ->
              exact 3;
              Fault_inject { fault = str 0; worker = wi 1; arg = wi 2 }
            | 15 ->
              exact 2;
              Fault_clear { fault = str 0; worker = wi 1 }
            | 16 ->
              exact 3;
              Splice_attach { conn = wi 0; worker = wi 1; key = wi 2 }
            | 17 ->
              exact 4;
              Splice_redirect
                { conn = wi 0; worker = wi 1; bytes = wi 2; copied = wi 3 }
            | 18 ->
              exact 4;
              Splice_teardown
                { conn = wi 0; worker = wi 1; key = wi 2; reason = str 3 }
            | t -> corrupt "unknown record tag %d" t
          in
          f { seq = w1; time = w2; event }
        end
      end
    done

  let read_channel ic =
    let acc = ref [] in
    iter_channel ic (fun r -> acc := r :: !acc);
    List.rev !acc

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
end

(* [set_now] on a state that is not installed (idle shards). *)
let set_now_in s t = if A.get active_sinks > 0 then s.clock <- t
