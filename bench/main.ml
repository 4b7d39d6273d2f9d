(* Benchmark harness.

   1. Regeneration of every table and figure in the paper's evaluation,
      via the experiments registry (the shapes to compare against the
      paper are recorded in EXPERIMENTS.md).
   2. The gated bench groups of [Bench.Groups] (sched, dispatch, chaos,
      cluster, conn, splice): one row format, one table per group, one
      baseline file (BENCH.json) and one regression gate.
   3. Bechamel micro-benchmarks of the Hermes hot paths ("micro"): the
      bit twiddling the eBPF dispatcher relies on, WST updates and
      snapshots, a full Algo 1 scheduling pass, the Algo 2 program
      under the interpreter, and the supporting codecs.

   Usage:
     dune exec bench/main.exe                 # everything, full size
     dune exec bench/main.exe -- --quick      # shrunken runs
     dune exec bench/main.exe -- table3 fig13 # selected experiments, then
                                              # every group
     dune exec bench/main.exe -- --only micro
     dune exec bench/main.exe -- --only sched,conn --json   # merge into BENCH.json
     dune exec bench/main.exe -- --quick \
       --only sched,dispatch,chaos,cluster,conn,splice \
       --json=BENCH_CI.json --check=BENCH.json              # CI gate

   [--only] skips the experiments.  With more than one group selected,
   each runs in a process of its own ([run_apart]).  [--json] merges
   this run's rows into FILE by (group, name, size); [--check] gates
   them against FILE and exits 1 on a regression. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures                                            *)

let bitmap = Kernel.Bitops.bits_of_list [ 1; 3; 8; 13; 21; 34; 55 ]

let tuple =
  {
    Netsim.Addr.src_ip = 0x0A00002A;
    src_port = 43210;
    dst_ip = 0x0A0000FE;
    dst_port = 20007;
  }

let wst8 = Hermes.Wst.create ~workers:8

let () =
  for w = 0 to 7 do
    Hermes.Wst.set_avail wst8 w ~now:(Engine.Sim_time.ms 1);
    Hermes.Wst.add_busy wst8 w (w * 3);
    Hermes.Wst.add_conn wst8 w (w * 7)
  done

let dispatch_prog =
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"M_sock" ~size:64 in
  for i = 0 to 63 do
    Kernel.Ebpf_maps.Sockarray.set m_socket i
      (Kernel.Socket.create_listen ~port:80 ~backlog:4 ())
  done;
  Kernel.Ebpf.verify_exn
    (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2)

let dispatch_vm =
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel_vm" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"M_sock_vm" ~size:64 in
  for i = 0 to 63 do
    Kernel.Ebpf_maps.Sockarray.set m_socket i
      (Kernel.Socket.create_listen ~port:80 ~backlog:4 ())
  done;
  match
    Kernel.Verifier.compile_and_verify
      (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2)
  with
  | Ok v ->
    if not (Kernel.Ebpf_vm.fully_proved v) then
      failwith "bench: dispatch bytecode left residual runtime checks";
    v
  | Error e -> failwith (Kernel.Verifier.error_to_string e)

let router100 =
  Lb.Router.create
    (List.init 100 (fun i ->
         {
           Lb.Router.matcher =
             { host = None; path = `Prefix (Printf.sprintf "/svc%d/" i) };
           backend_group = Printf.sprintf "g%d" (i mod 8);
         }))

let http_raw =
  "GET /svc42/items?q=1 HTTP/1.1\r\nHost: bench.example\r\nAccept: */*\r\n\r\n"

let micro_tests =
  let hist = Stats.Histogram.create () in
  let hooks = Hermes.Metrics.create ~wst:wst8 ~worker:0 in
  [
    Test.make ~name:"bitops/popcount64"
      (Staged.stage (fun () -> Kernel.Bitops.popcount64 bitmap));
    Test.make ~name:"bitops/find_nth_set"
      (Staged.stage (fun () -> Kernel.Bitops.find_nth_set bitmap 4));
    Test.make ~name:"bitops/reciprocal_scale"
      (Staged.stage (fun () ->
           Kernel.Bitops.reciprocal_scale ~hash:0xDEADBEEF ~n:7));
    Test.make ~name:"netsim/flow_hash"
      (Staged.stage (fun () -> Netsim.Flow_hash.of_four_tuple tuple));
    Test.make ~name:"hermes/wst_busy_update"
      (Staged.stage (fun () ->
           Hermes.Metrics.busy_count hooks 1;
           Hermes.Metrics.busy_count hooks (-1)));
    Test.make ~name:"hermes/wst_read_all_8"
      (Staged.stage (fun () -> Hermes.Wst.read_all wst8));
    Test.make ~name:"hermes/scheduler_pass_8"
      (Staged.stage (fun () ->
           Hermes.Scheduler.schedule ~config:Hermes.Config.default ~wst:wst8
             ~now:(Engine.Sim_time.ms 2)));
    Test.make ~name:"hermes/ebpf_dispatch"
      (Staged.stage (fun () ->
           Kernel.Ebpf.run dispatch_prog
             { Kernel.Ebpf.flow_hash = 0x9E3779B9; dst_port = 20007 }));
    Test.make ~name:"hermes/ebpf_dispatch_bytecode"
      (Staged.stage (fun () ->
           Kernel.Ebpf_vm.run dispatch_vm
             { Kernel.Ebpf.flow_hash = 0x9E3779B9; dst_port = 20007 }));
    Test.make ~name:"hermes/ebpf_dispatch_bytecode_checked"
      (Staged.stage (fun () ->
           Kernel.Ebpf_vm.run_checked dispatch_vm
             { Kernel.Ebpf.flow_hash = 0x9E3779B9; dst_port = 20007 }));
    Test.make ~name:"stats/histogram_record"
      (Staged.stage (fun () -> Stats.Histogram.record hist 123456.0));
    Test.make ~name:"lb/http_parse"
      (Staged.stage (fun () -> Lb.Http.parse_request http_raw));
    Test.make ~name:"lb/router_route_100"
      (Staged.stage (fun () ->
           Lb.Router.route router100 ~host:None ~path:"/svc42/items"));
  ]

let run_micro () =
  print_string "\n=== Micro-benchmarks (Bechamel, ns/run) ===\n";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let table = Stats.Table.create ~header:[ "benchmark"; "ns/run"; "r^2" ] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ v ] -> v
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some v -> v
            | None -> nan
          in
          Stats.Table.add_row table
            [ name; Stats.Table.cell_f ns; Printf.sprintf "%.4f" r2 ])
        results)
    micro_tests;
  Stats.Table.print table

(* Run group [g] in a process of its own: this executable with
   [--only g --json=TMP].  With several groups selected each gets a
   fresh heap, as the per-group CI runs it replaces did, so neither a
   group's wall-clock ratios nor the soak's peak RSS depend on which
   groups ran before it in the same process. *)
let run_apart (g : Bench.Gate.group) ~quick =
  let file = Filename.temp_file ("bench-" ^ g.id) ".json" in
  Sys.remove file;
  let args =
    [ Sys.executable_name; "--only"; g.id; "--json=" ^ file ]
    @ if quick then [ "--quick" ] else []
  in
  flush_all ();
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
      Unix.stderr
  in
  match (Unix.waitpid [] pid, Bench.Row.read file) with
  | (_, Unix.WEXITED 0), Ok rows ->
    Sys.remove file;
    rows
  | _ ->
    Printf.eprintf "bench: group %s failed\n" g.id;
    exit 1

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--only G[,G...]] [--json[=FILE]] \
     [--check[=FILE]] [EXPERIMENT...]\n\
     groups: micro, sched, dispatch, chaos, cluster, conn, splice; FILE \
     defaults to BENCH.json";
  exit 2

let () =
  let quick = ref false and only = ref None and json = ref None in
  let check = ref None and ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--only" :: groups :: rest ->
      only := Some (String.split_on_char ',' groups);
      parse rest
    | a :: rest ->
      let flag, file =
        match String.index_opt a '=' with
        | Some i -> (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
        | None -> (a, "BENCH.json")
      in
      (match flag with
      | "--json" -> json := Some file
      | "--check" -> check := Some file
      | _ when a <> "" && a.[0] <> '-' -> ids := a :: !ids
      | _ -> usage ());
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  let ids = List.rev !ids in
  let selected g = match !only with None -> true | Some gs -> List.mem g gs in
  let known = "micro" :: List.map (fun g -> g.Bench.Gate.id) Bench.Groups.all in
  Option.iter (List.iter (fun g -> if not (List.mem g known) then usage ())) !only;
  if !only = None then begin
    match ids with
    | [] -> Experiments.Registry.run_all ~quick ()
    | ids ->
      List.iter
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e.Experiments.Registry.run ~quick ()
          | None ->
            Printf.eprintf "unknown experiment %S (see hermes_sim list)\n" id;
            exit 1)
        ids
  end;
  let groups = List.filter (fun g -> selected g.Bench.Gate.id) Bench.Groups.all in
  let rows =
    match groups with
    | [ g ] ->
      let rows = Bench.Gate.run g ~quick in
      Bench.Row.print ~title:g.title rows;
      rows
    | groups -> List.concat_map (run_apart ~quick) groups
  in
  Option.iter (fun file -> Bench.Row.write ~file rows) !json;
  (match !check with
  | None -> ()
  | Some file -> (
    match Bench.Row.read file with
    | Ok baseline -> if not (Bench.Gate.check Bench.Groups.all ~baseline rows) then exit 1
    | Error e ->
      Printf.eprintf "bench: baseline %s\n" e;
      exit 1));
  if selected "micro" then run_micro ()
