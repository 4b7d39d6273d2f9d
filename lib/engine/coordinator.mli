(** Conservative time synchronization across simulation shards.

    Classic lookahead-based parallel discrete-event simulation: all
    cross-shard interaction carries a fixed minimum latency [D] (the
    lookahead), so a round that runs every member shard from horizon
    [H - D] to [H] can never receive a message that should have fired
    inside the window it is executing — anything sent in that window
    lands strictly after [H].  The coordinator owns the rounds:

    + deliver control-plane messages posted since the last round,
      sorted by [(at, src, seq)];
    + run every member shard to the new horizon — inline on the
      calling domain, or fanned out over a {!Task_deque}-based
      work-stealing domain pool when [domains > 1].  A member with
      nothing due by the horizon ({!Shard.skip_idle}) only has its
      clocks moved, so a round costs O(members with work due) and the
      pool is used only when at least two members are busy;
    + collect the members' outboxes, sort globally by
      [(at, src, seq)], and deliver.

    The sort key is a function of logical shard ids and per-sender
    stamps only, so destination-side event sequence numbers — and with
    them the merged trace — do not depend on the domain count or on
    which domain ran which shard. *)

(** Historical orderings the PR 6 stress tests caught, re-seedable so
    the model-check CI gate can prove the explorer still finds them.
    Never set in production — [Pool_make] documents the effect of
    each. *)
type seeded_bug = [ `Two_owner_pop | `Count_after_push ]

(** The work-stealing domain pool that runs one round's shard tasks,
    as a functor over the concurrency shim so [Mcheck.Model] can
    enumerate its interleavings.  The production coordinator below
    uses [Pool_make (Mcheck_shim.Real)] internally.

    [`Two_owner_pop] makes workers take tasks with the owner-only
    [pop] instead of [steal] (lost or doubled tasks);
    [`Count_after_push] publishes the round's tasks before setting the
    outstanding counter (an early steal drives the counter negative
    and the round completion is lost).  Both are found as
    counterexamples by the [pool_*] harnesses in [Mcheck.Scenarios]. *)
module Pool_make (P : Mcheck_shim.PRIM) : sig
  type t

  val create : ?seeded_bug:seeded_bug -> domains:int -> unit -> t
  (** Spawn [domains - 1] worker threads; the creating thread is pool
      slot 0 and the sole owner of every deque. *)

  val run_round : t -> (unit -> unit) list -> unit
  (** Execute every task exactly once across the pool; returns only
      after the last task has completed.  Caller must be the creating
      thread.  Tasks must not spawn pool subtasks. *)

  val shutdown : t -> unit
  (** Wake parked workers and join them. *)
end

type t

val create : control:Shard.t -> domains:int -> t
(** [domains] is the total worker parallelism for member rounds,
    including the calling domain; [1] (or a single member) means fully
    inline execution with no domain ever spawned.  The pool is created
    lazily on the first parallel round. *)

val add : t -> Shard.t -> unit
(** Register a member shard.  If the coordinator has already advanced,
    the new member's clock is aligned to the current horizon first. *)

val remove : t -> int -> unit
(** Unregister the member with the given shard id.  Pending messages
    addressed to it are silently dropped at delivery time — the mail
    is abandoned along with the removed VM.  Unknown ids are a
    no-op. *)

val members : t -> Shard.t list
(** Registered members in shard-id order. *)

val find : t -> int -> Shard.t option

val horizon : t -> Sim_time.t
(** The virtual time every member has been run to. *)

val advance : t -> horizon:Sim_time.t -> unit
(** Execute one round up to [horizon] (steps 1–3 above).
    @raise Invalid_argument if [horizon] is behind the current one. *)

val shutdown : t -> unit
(** Join the pool's domains.  Idempotent; required before the process
    creates unrelated domain pools (OCaml caps live domains), so every
    harness that builds clusters in a loop must shut each one down. *)
