(** Discrete-event simulation driver.

    All subsystems (the TCP model, epoll, workers, workload generators,
    probers) run as callbacks scheduled on one of these simulators.
    Events at equal timestamps fire in scheduling order (a monotone
    sequence number breaks ties), which makes every run deterministic.

    The queue behind this interface is the hierarchical timing wheel
    of {!Wheel}: amortised O(1) schedule and extraction, O(1) {!cancel}
    that drops the action closure immediately, and O(1)
    {!pending_count}.  The retired binary-heap engine survives as
    [Ref_heap] in the test-support library ([test/support]), for the
    differential tests and the scheduler benchmarks. *)

type t

type handle
(** Names a scheduled event so it can be cancelled (e.g. an epoll_wait
    timeout that is preempted by an I/O event). *)

val create : unit -> t

val now : t -> Sim_time.t
(** Current virtual time. *)

val shard_id : t -> int
(** Logical-shard tag of this simulator: [0] for a standalone
    simulator (the default), the owning {!Shard}'s id when the
    simulator is one logical process of a sharded cluster run.  Purely
    a label — it feeds the deterministic [(time, shard, seq)] merge
    order of per-shard traces. *)

val set_shard : t -> int -> unit

val schedule : t -> at:Sim_time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when virtual time reaches [at].
    @raise Invalid_argument if [at] is in the past. *)

val feed : t -> n:int -> at:(int -> Sim_time.t) -> run:(int -> unit) -> unit
(** [feed t ~n ~at ~run] runs [run i] at time [at i] for [i = 0 .. n-1]
    and fires them exactly as [n] calls [schedule t ~at:(at i)] made
    now, in order, would: it reserves that block of [n] consecutive
    sequence numbers at once, so the [(time, seq)] firing order — ties
    with other events included — and {!events_fired} are unchanged.
    Only one member is pending at a time: when member [i] fires,
    member [i+1] is added (its [at] is read then) before [run i]
    runs.  So a long script costs one queue entry, not [n], and
    {!pending_count} counts it once.  [at] must be non-decreasing.
    @raise Invalid_argument if [n] is negative or [at 0] is in the
    past (at once), or if [at (i+1) < at i] (when member [i] fires). *)

val schedule_after : t -> delay:Sim_time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f].
    @raise Invalid_argument if [delay] is negative. *)

val cancel : t -> handle -> unit
(** Cancel a pending event in O(1), releasing its action closure
    immediately.  Cancelling an already-fired or already-cancelled
    event is a no-op. *)

val is_pending : t -> handle -> bool

val pending_count : t -> int
(** Number of live (not cancelled, not fired) events — O(1). *)

val occupancy : t -> int
(** Physical queue entries held, including cancelled entries whose
    slot has not been reclaimed yet; compaction keeps this bounded by
    [2 * pending_count + O(1)].  Exposed for the cancellation-leak
    regression tests. *)

val step : t -> bool
(** Fire the earliest pending event.  Returns [false] when the queue is
    empty. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> limit:Sim_time.t -> unit
(** Run events with timestamp [<= limit], then advance the clock to
    [limit].  Events scheduled beyond [limit] stay pending. *)

val next_time_lower_bound : t -> Sim_time.t
(** A lower bound on the time of the next event to fire ([max_int]
    when the queue is empty), computed without side effects.
    Cancelled events not yet reclaimed can make it early, never
    late. *)

val skip_idle : t -> limit:Sim_time.t -> [ `Busy | `Advanced | `Unchanged ]
(** [run_until t ~limit] for a simulator with nothing due by [limit]:
    when {!next_time_lower_bound} is past [limit], reset the stop flag
    and move the clock to [limit] exactly as {!run_until} would, but
    leave the trace clock to the caller — [`Advanced] says the clock
    moved (where [run_until] would also have called
    [Trace.set_now limit]), [`Unchanged] that it was already there.
    [`Busy] means an event may be due and nothing was touched. *)

val stop : t -> unit
(** Request that [run] / [run_until] return after the current event. *)

val events_fired : t -> int
(** Total events executed so far (a cheap progress metric for tests). *)
