(** Traffic trace recording and rate-scaled replay.

    §6.2's methodology: traffic from the problematic cases was
    "collected and replayed ... at 2 to 3 times the original rate".  A
    trace is a timestamped script of client operations, generated once
    from a profile; replaying it at rate [k] divides every timestamp by
    [k], so the same connections and requests arrive proportionally
    faster.  Replaying one recorded trace against all three modes
    removes generator noise from the comparison. *)

type op =
  | Connect of { at : Engine.Sim_time.t; key : int; tenant : int }
  | Send of {
      at : Engine.Sim_time.t;
      key : int;
      op_class : Lb.Request.op;
      size : int;
      cost : Engine.Sim_time.t;
    }
  | Close of { at : Engine.Sim_time.t; key : int }

type trace

val record :
  profile:Profile.t ->
  tenants:int ->
  duration:Engine.Sim_time.t ->
  rng:Engine.Rng.t ->
  trace
(** Generate a trace offline (no device involved): Poisson arrivals
    and per-connection request scripts per the profile, truncated at
    [duration]. *)

val length : trace -> int
val connections : trace -> int
val ops : trace -> op list
(** In timestamp order. *)

val replay : trace -> device:Lb.Device.t -> rate:float -> unit
(** Stream the trace onto the device's simulator, timestamps scaled by
    [1/rate], through one {!Engine.Sim.feed}: the script's sequence
    numbers are reserved now, so the ops fire exactly as if all were
    scheduled up front, but only the next op is ever pending.  Requests
    addressed to connections that are not yet established are buffered
    client-side (with tenant id 0) and flushed on establishment;
    requests to reset connections are dropped.  A connection's
    client-side state leaves the replay's key table with the last op
    naming that key, so finished connections are not kept reachable
    for the rest of the run.
    @raise Invalid_argument if [rate] is not positive or the first op
    lies before the simulator's clock. *)

(** {1 Persistence}

    Traces serialize to a line-oriented text format ("hermes-trace
    v1") so a recorded workload can be stored and replayed across
    processes — the collect-once/replay-many methodology of §6.2. *)

val to_string : trace -> string

val of_string : string -> (trace, string) result
(** Parse; the error names the offending line. *)

val save : trace -> path:string -> unit
val load : path:string -> (trace, string) result
