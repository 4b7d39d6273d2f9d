(* Splice-plane tests: the userspace-directed sockmap protocol
   differentially against a naive hashtable reference over random op
   sequences (including desync fault injection and strict toggles),
   the desync misdelivery scenario end to end through the device and
   the chaos monitors (sloppy userspace misdelivers and is caught;
   strict userspace blocks it), a fixed-seed splice-vs-proxy CPU
   comparison, and the Config.Mode round-trip. *)

let check = Alcotest.check

module ST = Engine.Sim_time

(* ------------------------------------------------------------------ *)
(* Config.Mode is the single source of truth for mode names            *)

let test_mode_roundtrip () =
  check Alcotest.int "seven modes" 7 (List.length Hermes.Config.Mode.all);
  check Alcotest.int "names covers all" 7 (List.length (Hermes.Config.Mode.names));
  List.iter
    (fun m ->
      let s = Hermes.Config.Mode.to_string m in
      match Hermes.Config.Mode.of_string s with
      | Some m' -> check Alcotest.bool (s ^ " round-trips") true (m = m')
      | None -> Alcotest.failf "mode %s did not parse back" s)
    Hermes.Config.Mode.all;
  check Alcotest.bool "unknown name rejected" true
    (Hermes.Config.Mode.of_string "bogus" = None);
  (* names are pairwise distinct, so the round-trip is a bijection *)
  let names = List.map Hermes.Config.Mode.to_string Hermes.Config.Mode.all in
  check Alcotest.int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Differential: Lb.Splice (real JIT + sockmap) vs a naive reference    *)

(* The reference is two plain hashtables — kernel view (key -> entry)
   and userspace view (conn -> key/worker) — with the protocol rules
   transcribed directly from splice.mli.  No sockmap, no eBPF: if the
   real plane's JIT, bookkeeping or fault modelling diverges from the
   written-down protocol under any op interleaving, the differential
   fails. *)
module Reference = struct
  type t = {
    kernel : (int, int * int) Hashtbl.t; (* key -> (conn, target) *)
    user : (int, int * int) Hashtbl.t; (* conn -> (key, worker) *)
    desynced : bool array;
    mutable strict : bool;
    slots : int;
    copy : int;
    (* mirrored stats counters *)
    mutable attaches : int;
    mutable collisions : int;
    mutable redirects : int;
    mutable fallbacks : int;
    mutable desync_blocked : int;
    mutable teardowns : int;
  }

  let create ~workers ~slots ~copy =
    {
      kernel = Hashtbl.create 16;
      user = Hashtbl.create 16;
      desynced = Array.make workers false;
      strict = true;
      slots;
      copy;
      attaches = 0;
      collisions = 0;
      redirects = 0;
      fallbacks = 0;
      desync_blocked = 0;
      teardowns = 0;
    }

  let key_of t flow_hash = flow_hash land (t.slots - 1)

  let attach t ~conn ~flow_hash ~worker =
    if Hashtbl.mem t.user conn then None
    else begin
      let key = key_of t flow_hash in
      match Hashtbl.find_opt t.kernel key with
      | Some (c, _) when c <> conn ->
        t.collisions <- t.collisions + 1;
        if t.strict then None
        else begin
          Hashtbl.replace t.user conn (key, worker);
          t.attaches <- t.attaches + 1;
          Some key
        end
      | Some _ | None ->
        Hashtbl.replace t.kernel key (conn, worker);
        Hashtbl.replace t.user conn (key, worker);
        t.attaches <- t.attaches + 1;
        Some key
    end

  let teardown t ~conn =
    match Hashtbl.find_opt t.user conn with
    | None -> None
    | Some (key, worker) ->
      Hashtbl.remove t.user conn;
      t.teardowns <- t.teardowns + 1;
      (if not t.desynced.(worker) then
         match Hashtbl.find_opt t.kernel key with
         | Some (c, _) when c = conn -> Hashtbl.remove t.kernel key
         | Some _ | None -> ());
      Some (key, worker)

  let teardown_worker t ~worker =
    let victims =
      Hashtbl.fold
        (fun conn (_, w) acc -> if w = worker then conn :: acc else acc)
        t.user []
    in
    List.fold_left
      (fun acc conn ->
        match teardown t ~conn with
        | Some (key, _) -> (conn, key) :: acc
        | None -> acc)
      [] victims

  (* (conn, worker, copied) on redirect, None on fallback *)
  let decide t ~conn ~flow_hash ~bytes =
    match Hashtbl.find_opt t.kernel (key_of t flow_hash) with
    | None ->
      t.fallbacks <- t.fallbacks + 1;
      None
    | Some (hit, target) ->
      if hit <> conn && t.strict then begin
        t.desync_blocked <- t.desync_blocked + 1;
        t.fallbacks <- t.fallbacks + 1;
        None
      end
      else begin
        t.redirects <- t.redirects + 1;
        Some (hit, target, min bytes t.copy)
      end
end

type op =
  | Attach of int * int * int (* conn, flow_hash, worker *)
  | Decide of int * int * int (* conn, flow_hash, bytes *)
  | Teardown of int
  | Teardown_worker of int
  | Desync of int * bool
  | Strict of bool

let op_to_string = function
  | Attach (c, f, w) -> Printf.sprintf "attach(conn=%d,hash=%d,worker=%d)" c f w
  | Decide (c, f, b) -> Printf.sprintf "decide(conn=%d,hash=%d,bytes=%d)" c f b
  | Teardown c -> Printf.sprintf "teardown(%d)" c
  | Teardown_worker w -> Printf.sprintf "teardown_worker(%d)" w
  | Desync (w, v) -> Printf.sprintf "desync(%d,%b)" w v
  | Strict v -> Printf.sprintf "strict(%b)" v

(* Small spaces on purpose: 12 conns over 8 sockmap slots and 32 flow
   hashes makes collisions, reuse-after-teardown and stale-entry hits
   common rather than rare. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun c f w -> Attach (c, f, w))
            (int_range 1 12) (int_range 0 31) (int_range 0 3) );
        ( 6,
          map3
            (fun c f b -> Decide (c, f, b))
            (int_range 1 12) (int_range 0 31) (int_range 0 70_000) );
        (3, map (fun c -> Teardown c) (int_range 1 12));
        (1, map (fun w -> Teardown_worker w) (int_range 0 3));
        (1, map2 (fun w v -> Desync (w, v)) (int_range 0 3) bool);
        (1, map (fun v -> Strict v) bool);
      ])

let apply_and_compare sp rf op =
  match op with
  | Attach (conn, flow_hash, worker) ->
    Lb.Splice.attach sp ~conn ~flow_hash ~worker
    = Reference.attach rf ~conn ~flow_hash ~worker
  | Decide (conn, flow_hash, bytes) ->
    let real =
      match Lb.Splice.decide sp ~conn ~flow_hash ~dst_port:80 ~bytes with
      | Lb.Splice.Redirect { conn; worker; copied; cycles = _ } ->
        Some (conn, worker, copied)
      | Lb.Splice.Fallback -> None
    in
    real = Reference.decide rf ~conn ~flow_hash ~bytes
  | Teardown conn -> Lb.Splice.teardown sp ~conn = Reference.teardown rf ~conn
  | Teardown_worker worker ->
    List.sort compare (Lb.Splice.teardown_worker sp ~worker)
    = List.sort compare (Reference.teardown_worker rf ~worker)
  | Desync (worker, v) ->
    Lb.Splice.set_desynced sp ~worker v;
    rf.Reference.desynced.(worker) <- v;
    true
  | Strict v ->
    Lb.Splice.set_strict sp v;
    rf.Reference.strict <- v;
    true

let views_agree sp rf =
  (* end-of-sequence convergence: the userspace views and every stats
     counter agree (the kernel views are compared implicitly, slot by
     slot, by each Decide op along the way) *)
  let s = Lb.Splice.stats sp in
  Lb.Splice.attached sp = Hashtbl.length rf.Reference.user
  && s.Lb.Splice.attaches = rf.Reference.attaches
  && s.Lb.Splice.collisions = rf.Reference.collisions
  && s.Lb.Splice.redirects = rf.Reference.redirects
  && s.Lb.Splice.fallbacks = rf.Reference.fallbacks
  && s.Lb.Splice.desync_blocked = rf.Reference.desync_blocked
  && s.Lb.Splice.teardowns = rf.Reference.teardowns

let prop_splice_matches_reference =
  QCheck.Test.make
    ~name:"splice plane = naive reference (random op sequences with faults)"
    ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let sp = Lb.Splice.create ~workers:4 ~slots:8 ~copy:128 () in
      let rf = Reference.create ~workers:4 ~slots:(Lb.Splice.slots sp) ~copy:128 in
      List.for_all (fun op -> apply_and_compare sp rf op) ops
      && views_agree sp rf)

(* ------------------------------------------------------------------ *)
(* Desync misdelivery, end to end through device + monitors            *)

(* All four workers drop their sock_deletes (the splice_desync fault),
   every connection sends one spliced chunk and closes, and the tiny
   8-slot sockmap guarantees later connections collide with the stale
   entries the lost deletes left behind. *)
let run_desync_scenario ~strict =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 7 in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode:Lb.Device.Splice ~workers:4
      ~splice_slots:8 ~tenants ()
  in
  let monitor =
    Faults.Monitor.create
      {
        Faults.Monitor.default_config with
        Faults.Monitor.expect_exclusion = false;
        expect_fallback = false;
      }
  in
  let sink =
    { Trace.write = (fun r -> Faults.Monitor.observe monitor r); close = ignore }
  in
  Trace.with_sink sink (fun () ->
      Lb.Device.start device;
      Lb.Device.set_splice_strict device strict;
      for w = 0 to 3 do
        Lb.Device.set_splice_desync device ~worker:w true
      done;
      let one_chunk_events () =
        {
          Lb.Device.established =
            (fun conn ->
              let req =
                Lb.Request.make ~id:(Lb.Device.fresh_id device)
                  ~op:Lb.Request.Plain_proxy ~size:8192 ~cost:(ST.us 30)
                  ~tenant_id:conn.Lb.Conn.tenant_id
              in
              ignore (Lb.Device.send device conn req));
          request_done = (fun conn _ -> Lb.Device.close_conn device conn);
          closed = (fun _ -> ());
          reset = (fun _ -> ());
          dispatch_failed = (fun () -> ());
        }
      in
      for i = 0 to 19 do
        ignore
          (Engine.Sim.schedule sim
             ~at:(ST.us (200 * (i + 1)))
             (fun () ->
               Lb.Device.connect device ~tenant:0
                 ~events:(one_chunk_events ())))
      done;
      Engine.Sim.run_until sim ~limit:(ST.ms 50));
  let report = Faults.Monitor.finalize monitor ~device in
  let stats =
    match Lb.Device.splice device with
    | Some sp -> Lb.Splice.stats sp
    | None -> Alcotest.fail "splice device has no splice plane"
  in
  (report, stats)

let test_desync_sloppy_misdelivers_and_is_caught () =
  let report, stats = run_desync_scenario ~strict:false in
  check Alcotest.bool "collisions occurred" true (stats.Lb.Splice.collisions > 0);
  check Alcotest.bool "stale redirects observed" true
    (report.Faults.Monitor.stale_splice_redirects > 0);
  check Alcotest.bool "monitor flags the misdelivery" true
    (report.Faults.Monitor.violations <> [])

let test_desync_strict_blocks_misdelivery () =
  let report, stats = run_desync_scenario ~strict:true in
  (* same traffic, same lost deletes: the strict attach-outcome check
     keeps colliding conns off the fast path, so nothing misdelivers *)
  check Alcotest.bool "collisions occurred" true (stats.Lb.Splice.collisions > 0);
  check Alcotest.int "no stale redirects" 0
    report.Faults.Monitor.stale_splice_redirects;
  check (Alcotest.list Alcotest.string) "no violations" []
    report.Faults.Monitor.violations

(* ------------------------------------------------------------------ *)
(* A redirected chunk in flight at teardown                             *)

(* One connection sends a chunk large enough that its in-kernel
   forwarding outlasts the worker's handling of what follows it in the
   same instant: a FIN (the close marker) or an RST.  The chunk was
   forwarded before either, so a FIN must not lose it; an RST discards
   it. *)
let run_chunk_then_teardown ~reset =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 11 in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode:Lb.Device.Splice ~workers:2 ~tenants ()
  in
  Lb.Device.start device;
  let torn_down_at = ref None in
  let note_teardown _ = torn_down_at := Some (Engine.Sim.now sim) in
  let events =
    {
      Lb.Device.established =
        (fun conn ->
          let req =
            Lb.Request.make ~id:(Lb.Device.fresh_id device)
              ~op:Lb.Request.Plain_proxy ~size:(16 * 1024 * 1024)
              ~cost:(ST.us 30) ~tenant_id:conn.Lb.Conn.tenant_id
          in
          check Alcotest.bool "chunk redirected" true
            (Lb.Device.send device conn req);
          if reset then
            Lb.Worker.reset_connection
              (Lb.Device.worker device conn.Lb.Conn.worker_id)
              conn
          else Lb.Device.close_conn device conn);
      request_done = (fun _ _ -> ());
      closed = note_teardown;
      reset = note_teardown;
      dispatch_failed = (fun () -> Alcotest.fail "dispatch failed");
    }
  in
  ignore
    (Engine.Sim.schedule sim ~at:(ST.us 100) (fun () ->
         Lb.Device.connect device ~tenant:0 ~events));
  Engine.Sim.run_until sim ~limit:(ST.ms 50);
  let stats =
    match Lb.Device.splice device with
    | Some sp -> Lb.Splice.stats sp
    | None -> Alcotest.fail "splice device has no splice plane"
  in
  check Alcotest.int "one redirect" 1 stats.Lb.Splice.redirects;
  check Alcotest.bool "torn down" true (!torn_down_at <> None);
  Lb.Device.completed device

let test_chunk_survives_close () =
  check Alcotest.int "chunk completes despite the FIN" 1
    (run_chunk_then_teardown ~reset:false)

let test_chunk_lost_on_reset () =
  check Alcotest.int "chunk discarded by the RST" 0
    (run_chunk_then_teardown ~reset:true)

(* ------------------------------------------------------------------ *)
(* Fixed-seed splice vs proxy: same traffic, cheaper requests           *)

let run_workload_leg mode =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 0xBEEF in
  let device_rng = Engine.Rng.split rng in
  let tenants = Netsim.Tenant.population ~n:2 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng:device_rng ~mode ~workers:4 ~tenants ()
  in
  Lb.Device.start device;
  let profile =
    Workload.Cases.splice_profile Workload.Cases.Long_streaming ~workers:4
  in
  let driver = Workload.Driver.start ~device ~profile ~rng () in
  Engine.Sim.run_until sim ~limit:(ST.ms 400);
  Workload.Driver.stop driver;
  let completed = Lb.Device.completed device in
  let cpu =
    Array.fold_left
      (fun acc (s : Lb.Device.tenant_stats) -> ST.add acc s.Lb.Device.cpu_consumed)
      0
      (Lb.Device.tenant_report device)
  in
  (device, completed, ST.to_sec_f cpu /. float_of_int (max 1 completed))

let test_splice_beats_proxy_on_streams () =
  let _, proxy_completed, proxy_cpu = run_workload_leg Lb.Device.Reuseport in
  let device, splice_completed, splice_cpu =
    run_workload_leg Lb.Device.Splice
  in
  check Alcotest.bool "proxy completed requests" true (proxy_completed > 0);
  check Alcotest.bool "splice completed requests" true (splice_completed > 0);
  (match Lb.Device.splice device with
  | None -> Alcotest.fail "splice device has no splice plane"
  | Some sp ->
    let s = Lb.Splice.stats sp in
    check Alcotest.bool "redirects happened" true (s.Lb.Splice.redirects > 0);
    check Alcotest.int "zero residual checks on the attached program" 0
      (Lb.Splice.residual_checks sp));
  check Alcotest.bool
    (Printf.sprintf "splice CPU/req (%.2e s) < proxy CPU/req (%.2e s)"
       splice_cpu proxy_cpu)
    true
    (splice_cpu < proxy_cpu)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "splice"
    [
      ( "mode",
        [ Alcotest.test_case "Config.Mode round-trip" `Quick test_mode_roundtrip ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_splice_matches_reference ]);
      ( "desync",
        [
          Alcotest.test_case "sloppy userspace misdelivers, monitor catches"
            `Quick test_desync_sloppy_misdelivers_and_is_caught;
          Alcotest.test_case "strict userspace blocks misdelivery" `Quick
            test_desync_strict_blocks_misdelivery;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "redirected chunk survives a same-instant close"
            `Quick test_chunk_survives_close;
          Alcotest.test_case "redirected chunk is lost on reset" `Quick
            test_chunk_lost_on_reset;
        ] );
      ( "workload",
        [
          Alcotest.test_case "splice beats proxy on long streams" `Quick
            test_splice_beats_proxy_on_streams;
        ] );
    ]
