(* Host clock: CLOCK_MONOTONIC in nanoseconds, the same clock the
   OCaml runtime stamps its Runtime_events with, so benchmark spans and
   GC spans share one time axis.  The external is unboxed and noalloc:
   reading it allocates nothing, which keeps the minor-word counts of
   the measured window exact. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let sec_of_ns ns = float_of_int ns /. 1e9
