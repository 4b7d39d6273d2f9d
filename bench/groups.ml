(* Every gated bench group, in the order the harness runs them. *)
let all =
  [
    Sched_bench.group;
    Dispatch_bench.group;
    Chaos_bench.group;
    Cluster_bench.group;
    Conn_bench.group;
    Splice_bench.group;
  ]
