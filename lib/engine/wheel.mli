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
      order within a tick reduces to ordering that one slot by sequence
      number — the wheel reproduces the binary heap's [(time, seq)]
      order bit for bit (see the differential suite in
      [test/test_engine.ml]).

    {b Ticks.}  Extracting a level-0 slot copies its live entries into
    a reusable buffer and sorts them by [seq] without allocating:
    one- and two-entry ticks (the common case) cost O(1), larger ticks
    an insertion sort or, past 16 entries, a heap sort — O(k log k).
    While that tick drains, an {!add} at the tick's own time merges
    into it by [seq] rather than opening a fresh slot.  Sequence
    numbers therefore need not grow monotonically across live entries:
    a caller may {e reserve} a block of them and add its members one at
    a time, each at or after the previous one's time, and each still
    fires exactly where it would have had the whole block been added
    up front ({!Sim.feed} is built on this).

    Each entry cascades down at most once per level over its lifetime,
    so [add]/[pop] are amortised O(1).

    Cancellation is O(1) and {e releases the action closure
    immediately} ([cancel] swaps in a sentinel action); a cancelled
    entry's empty carcass stays slotted until its tick is reached or a
    compaction sweep — triggered when tombstones outnumber live
    entries — reclaims it, so storage is bounded by twice the live
    count (plus a small constant). *)

type t

type entry
(** Names a scheduled action so it can be cancelled. *)

val create : unit -> t

val add : t -> time:int -> seq:int -> (unit -> unit) -> entry
(** [add t ~time ~seq f] registers [f] to be returned by {!pop} once
    the wheel reaches [time].  Entries fire in ascending [(time, seq)]
    order whatever order they were added in, provided [(time, seq)] is
    unique and no entry is added after one it should precede has
    already been popped; an entry at the time of the tick being
    drained joins that tick in [seq] order.
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

val none : entry
(** The sentinel {!pop} returns when nothing is due (compare with
    [==]); never live. *)

val pop : t -> limit:int -> entry
(** Extract the earliest live entry with [time <= limit], or {!none}
    — leaving every entry with [time > limit] pending.  The extracted
    entry no longer counts as live or stored; run it with {!take}.
    The wheel clock never advances past [min limit (earliest
    pending)], so later [add]s at any [time >= limit] remain valid. *)

val time : entry -> int

val take : entry -> unit -> unit
(** The entry's action, marking the entry dead (so {!is_live} is false
    while the action runs); a dead entry's action is a no-op. *)

val next_time_lower_bound : t -> int
(** A lower bound on the time of the earliest live entry ([max_int]
    when nothing is stored), computed without touching the wheel.
    Cancelled entries not yet reclaimed can make it early, never
    late: no live entry fires before it. *)
