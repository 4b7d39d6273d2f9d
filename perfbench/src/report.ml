(* Metric units and the result line.  The names and units here are the
   ones BENCHMARK.json declares; run.py checks that the
   result carries exactly its metric set. *)

let units =
  [
    ("sim_kreq_per_host_s", "kreq/s");
    ("slice_host_ms_p50", "ms");
    ("slice_host_ms_p99", "ms");
    ("minor_words_per_req", "words");
    ("max_rss_mb", "MB");
    ("setup_s", "s");
    ("engine.events_per_req", "events");
    ("engine.host_ns_per_event", "ns");
    ("engine.pending_peak", "events");
    ("gc.host_share", "share");
    ("gc.pause_us_p99", "us");
    ("gc.promoted_words_per_req", "words");
    ("gc.major_collections", "count");
    ("kernel.selects_per_req", "count");
    ("kernel.select_host_ns", "ns");
    ("kernel.prog_select_share", "share");
    ("kernel.epoll_batches_per_req", "count");
    ("kernel.events_per_batch_p50", "events");
    ("hermes.sched_calls_per_req", "count");
    ("hermes.map_syncs_per_req", "count");
    ("hermes.pass_ratio", "share");
    ("hermes.wst_writes_per_req", "count");
    ("hermes.sched_host_ns", "ns");
    ("lb.accepts_per_req", "count");
    ("lb.open_conns_peak", "conns");
    ("lb.splice_redirects_per_req", "count");
    ("lb.splice_decide_host_ns", "ns");
    ("lb.splice_copied_share", "share");
    ("workload.record_s", "s");
    ("workload.replay_s", "s");
    ("workload.ops", "requests");
    ("trace.events_per_req", "events");
    ("trace.binary_host_ns_per_event", "ns");
    ("trace.overhead_share", "share");
    ("cluster.rounds", "count");
    ("cluster.round_host_us_p50", "us");
    ("cluster.round_host_us_p99", "us");
    ("cluster.parallel_speedup", "x");
    ("cluster.gc_host_share_by_domain", "share");
    ("unattributed.host_share", "share");
    ("host.speed_factor", "x");
    ("model.latency_p50_ms", "ms");
    ("model.latency_p99_ms", "ms");
    ("model.throughput_krps", "kreq/s");
    ("model.worker_util_mean", "share");
    ("model.kernel_cycles_per_req", "cycles");
    ("model.digest", "hash");
  ]

let unit_of name =
  match List.assoc_opt name units with
  | Some u -> u
  | None -> invalid_arg ("Report.unit_of: unknown metric " ^ name)

(* Shortest decimal that reads back as the same double. *)
let number x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value)
      (unit_of name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
