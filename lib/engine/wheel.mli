(** Hierarchical timing wheel: the priority queue behind {!Sim}.

    A hashed hierarchy of {e levels}, each an array of [32] slots.
    Level [l] has tick granularity [32{^l}] ns, so ten levels cover
    [2{^50}] ns (about 13 days of virtual time) before the {e spill
    list} — a sorted overflow for the far future — takes over.

    Placement uses the prefix rule: an entry lives at the lowest level
    [l] whose 5-bit time digit differs from the wheel clock's, in the
    slot named by that digit.  Two consequences make the wheel both
    fast and exactly ordered:

    - every occupied slot is at or ahead of the level's cursor, so the
      earliest pending entry is always in the {e lowest} non-empty
      level and advancing never scans empty regions tick by tick;
    - a level-0 slot holds entries of exactly one timestamp, so firing
      order within a tick reduces to sorting that one slot by sequence
      number — the wheel reproduces the binary heap's [(time, seq)]
      order bit for bit (see the differential suite in
      [test/test_engine.ml]).

    Each entry cascades down at most once per level over its lifetime,
    so [add]/[next_before] are amortised O(1).

    Cancellation is O(1) and {e releases the action closure
    immediately} ([cancel] nulls the entry's action); a cancelled
    entry's empty carcass stays slotted until its tick is reached or a
    compaction sweep — triggered when tombstones outnumber live
    entries — reclaims it, so storage is bounded by twice the live
    count (plus a small constant). *)

type t

type entry
(** Names a scheduled action so it can be cancelled. *)

val create : unit -> t

val add : t -> time:int -> seq:int -> (unit -> unit) -> entry
(** [add t ~time ~seq f] registers [f] to be returned by
    {!next_before} once the wheel reaches [time]; [(time, seq)] must
    be unique and [seq] monotone across live entries for the firing
    order to be deterministic.
    @raise Invalid_argument if [time] is before the wheel clock. *)

val cancel : t -> entry -> unit
(** O(1): marks the entry dead and drops its closure.  Cancelling an
    already-fired or already-cancelled entry is a no-op. *)

val is_live : entry -> bool
(** True until the entry is fired or cancelled. *)

val live_count : t -> int
(** Number of live entries — O(1). *)

val stored_count : t -> int
(** Physical entries held, including not-yet-reclaimed tombstones;
    bounded by [2 * live_count + O(1)] thanks to compaction.  Exposed
    for the cancellation-leak regression tests. *)

val next_before : t -> limit:int -> (int * int * (unit -> unit)) option
(** Extract the earliest live entry with [time <= limit] as
    [(time, seq, action)], marking it fired.  Returns [None] — and
    leaves every entry with [time > limit] pending — otherwise.  The
    wheel clock never advances past [min limit (earliest pending)],
    so later [add]s at any [time >= limit] remain valid. *)

val next_time_lower_bound : t -> int
(** A lower bound on the time of the earliest live entry ([max_int]
    when nothing is stored), computed without touching the wheel.
    Cancelled entries not yet reclaimed can make it early, never
    late: no live entry fires before it. *)
