(* Hierarchical timing wheel.  See wheel.mli for the design notes; the
   short version of the invariants maintained here:

   - [wt] (wheel time) is a lower bound on every pending entry's time.
   - An entry lives at level [l] iff its time, written in base-32
     digits, first differs from [wt] at digit [l]; its slot is that
     digit.  Hence every occupied slot is at or ahead of the level's
     cursor digit, the lowest non-empty level always holds the
     earliest entries, and a level-0 slot holds exactly one timestamp.
   - Advancing [wt] to a level-l slot's base keeps digits above [l]
     unchanged, so higher-level placements stay valid; the slot's
     entries then re-place strictly below [l] (each entry cascades at
     most once per level over its lifetime).
   - The spill list keeps entries whose time differs from [wt] above
     the top level, sorted by (time, seq); its head is the global
     minimum whenever the wheel proper is empty.
   - While the extracted tick [cur.(lo .. hi-1)] is non-empty it holds
     every pending entry at time [wt], in ascending seq: an [add] at
     [wt] merges into it by seq instead of opening a fresh level-0
     slot, so a reserved (out-of-order) seq still fires in place. *)

let slot_bits = 5
let slots = 32
let slot_mask = slots - 1
let levels = 10
let horizon_bits = slot_bits * levels (* 2^50 ns ≈ 13 days *)

type entry = {
  time : int;
  seq : int;
  mutable action : unit -> unit;
      (* [dead] once fired or cancelled: the closure is dropped the
         moment the entry dies, never when its slot drains. *)
}

(* The sentinel action of a dead entry, compared physically. *)
let dead () = ()
let none = { time = max_int; seq = max_int; action = dead }

type t = {
  mutable wt : int; (* wheel time *)
  slot : entry list array array; (* slot.(level).(index) *)
  occ : int array; (* per-level occupancy bitmap *)
  mutable spill : entry list; (* ascending (time, seq) *)
  mutable cur : entry array; (* extracted tick: cur.(lo .. hi-1) *)
  mutable lo : int;
  mutable hi : int;
  mutable live : int;
  mutable stored : int; (* physical entries, incl. tombstones *)
}

let create () =
  {
    wt = 0;
    slot = Array.init levels (fun _ -> Array.make slots []);
    occ = Array.make levels 0;
    spill = [];
    cur = Array.make 16 none;
    lo = 0;
    hi = 0;
    live = 0;
    stored = 0;
  }

let live_count t = t.live
let stored_count t = t.stored
let is_live e = e.action != dead
let time e = e.time

let take e =
  let a = e.action in
  e.action <- dead;
  a

(* Index of the lowest set bit via 32-bit De Bruijn multiplication. *)
let ctz_table =
  [|  0;  1; 28;  2; 29; 14; 24;  3; 30; 22; 20; 15; 25; 17;  4;  8;
     31; 27; 13; 23; 21; 19; 16;  7; 26; 12; 18;  6; 11;  5; 10;  9 |]

let ctz x = ctz_table.(((x land -x) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* Highest differing base-32 digit of [x = time lxor wt], i.e. the
   level an entry belongs to ([x] must be non-zero). *)
let level_of x =
  let l = ref 0 and v = ref (x lsr slot_bits) in
  while !v <> 0 do
    incr l;
    v := !v lsr slot_bits
  done;
  !l

let spill_insert e l =
  let rec go acc = function
    | [] -> List.rev_append acc [ e ]
    | f :: rest ->
      if e.time < f.time || (e.time = f.time && e.seq < f.seq) then
        List.rev_append acc (e :: f :: rest)
      else go (f :: acc) rest
  in
  go [] l

(* Slot an (already-counted) entry relative to the current [wt]. *)
let place t e =
  let x = e.time lxor t.wt in
  let l = if x = 0 then 0 else level_of x in
  if l >= levels then t.spill <- spill_insert e t.spill
  else begin
    let s = (e.time lsr (l * slot_bits)) land slot_mask in
    t.slot.(l).(s) <- e :: t.slot.(l).(s);
    t.occ.(l) <- t.occ.(l) lor (1 lsl s)
  end

(* Re-place a drained slot's live entries, reclaiming tombstones. *)
let rec cascade t = function
  | [] -> ()
  | e :: rest ->
    if is_live e then place t e else t.stored <- t.stored - 1;
    cascade t rest

(* Make room for one more tick entry at [hi]: slide the tick to the
   front when that frees at least half the buffer, else double it. *)
let make_room t =
  let n = t.hi - t.lo and len = Array.length t.cur in
  if n < len / 2 then Array.blit t.cur t.lo t.cur 0 n
  else begin
    let bigger = Array.make (2 * len) none in
    Array.blit t.cur t.lo bigger 0 n;
    t.cur <- bigger
  end;
  t.lo <- 0;
  t.hi <- n

(* Merge [e] into the tick being drained by seq.  An ordinary schedule
   carries the largest seq and appends; a reserved seq (see
   {!Sim.feed}) usually follows the entry just popped and so lands
   right before the head. *)
let insert_cur t e =
  if t.lo > 0 && e.seq < t.cur.(t.lo).seq then begin
    t.lo <- t.lo - 1;
    t.cur.(t.lo) <- e
  end
  else begin
    if t.hi = Array.length t.cur then make_room t;
    let cur = t.cur in
    let i = ref t.hi in
    while !i > t.lo && cur.(!i - 1).seq > e.seq do
      cur.(!i) <- cur.(!i - 1);
      decr i
    done;
    cur.(!i) <- e;
    t.hi <- t.hi + 1
  end

let add t ~time ~seq action =
  if time < t.wt then invalid_arg "Wheel.add: time before wheel clock";
  let e = { time; seq; action } in
  if time = t.wt && t.lo < t.hi then insert_cur t e else place t e;
  t.live <- t.live + 1;
  t.stored <- t.stored + 1;
  e

(* Sweep every slot, the spill list and the extracted tick, dropping
   dead entries.  O(stored + levels*slots); triggered only when
   tombstones outnumber live entries, so amortised O(1) per cancel. *)
let compact t =
  for l = 0 to levels - 1 do
    if t.occ.(l) <> 0 then begin
      let row = t.slot.(l) in
      let occ = ref 0 in
      for s = 0 to slots - 1 do
        match row.(s) with
        | [] -> ()
        | es ->
          let es = List.filter is_live es in
          row.(s) <- es;
          if es <> [] then occ := !occ lor (1 lsl s)
      done;
      t.occ.(l) <- !occ
    end
  done;
  t.spill <- List.filter is_live t.spill;
  let j = ref t.lo in
  for i = t.lo to t.hi - 1 do
    let e = t.cur.(i) in
    if is_live e then begin
      t.cur.(!j) <- e;
      incr j
    end
  done;
  t.hi <- !j;
  if t.lo = t.hi then begin
    t.lo <- 0;
    t.hi <- 0
  end;
  t.stored <- t.live

let cancel t e =
  if is_live e then begin
    e.action <- dead;
    t.live <- t.live - 1;
    if t.stored >= 64 && t.stored - t.live > t.stored / 2 then compact t
  end

(* --- ordering a tick by seq, without closures ------------------------ *)

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let e = a.(i) in
    let j = ref i in
    while !j > lo && a.(!j - 1).seq > e.seq do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- e
  done

(* Max-heap on seq over a.(lo .. lo+n-1), node [i] relative to [lo]. *)
let rec sift_down a lo n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(lo + l + 1).seq > a.(lo + l).seq then l + 1 else l in
    if a.(lo + c).seq > a.(lo + i).seq then begin
      swap a (lo + i) (lo + c);
      sift_down a lo n c
    end
  end

let heap_sort a lo hi =
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift_down a lo n i
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift_down a lo last 0
  done

let rec sorted a i hi = i + 1 >= hi || (a.(i).seq < a.(i + 1).seq && sorted a (i + 1) hi)

(* O(1) for the one- and two-entry ticks that dominate, O(k log k)
   worst case for big ones. *)
let sort_tick a lo hi =
  let n = hi - lo in
  if n = 2 then (if a.(lo).seq > a.(lo + 1).seq then swap a lo (lo + 1))
  else if n > 2 then
    if n <= 16 then insertion_sort a lo hi
    else if not (sorted a lo hi) then heap_sort a lo hi

(* Copy a slot list into [t.cur] backwards from index [i], reclaiming
   tombstones; returns the index below the last entry copied. *)
let rec fill t i = function
  | [] -> i
  | e :: rest ->
    if is_live e then begin
      t.cur.(i) <- e;
      fill t (i - 1) rest
    end
    else begin
      t.stored <- t.stored - 1;
      fill t i rest
    end

(* Load a drained level-0 slot as the current tick.  Slot lists are
   newest-first, so filling from the back mostly yields ascending seq
   already. *)
let load_tick t es =
  let k = List.length es in
  if k > Array.length t.cur then
    t.cur <- Array.make (max k (2 * Array.length t.cur)) none;
  let cur = t.cur in
  let lo = fill t (k - 1) es + 1 in
  if lo < k then begin
    t.lo <- lo;
    t.hi <- k;
    sort_tick cur lo k
  end

(* --- extraction -------------------------------------------------------- *)

let rec pop t ~limit =
  if t.lo < t.hi then begin
    let e = t.cur.(t.lo) in
    if is_live e && e.time > limit then none
    else begin
      t.lo <- t.lo + 1;
      if t.lo = t.hi then begin
        t.lo <- 0;
        t.hi <- 0
      end;
      t.stored <- t.stored - 1;
      if is_live e then begin
        t.live <- t.live - 1;
        e
      end
      else pop t ~limit (* tombstone: reclaimed, keep scanning *)
    end
  end
  else advance t ~limit

and advance t ~limit =
  let l = ref 0 in
  while !l < levels && t.occ.(!l) = 0 do
    incr l
  done;
  if !l = levels then refill t ~limit
  else begin
    let l = !l in
    let s = ctz t.occ.(l) in
    if l = 0 then begin
      (* A level-0 slot is a single tick: extract it as the current
         batch, ordered by sequence number. *)
      let time = ((t.wt lsr slot_bits) lsl slot_bits) lor s in
      if time > limit then none
      else begin
        t.wt <- time;
        t.occ.(0) <- t.occ.(0) land lnot (1 lsl s);
        let es = t.slot.(0).(s) in
        t.slot.(0).(s) <- [];
        load_tick t es;
        pop t ~limit
      end
    end
    else begin
      let shift = (l + 1) * slot_bits in
      let base = ((t.wt lsr shift) lsl shift) lor (s lsl (l * slot_bits)) in
      if base > limit then none
      else begin
        t.wt <- base;
        t.occ.(l) <- t.occ.(l) land lnot (1 lsl s);
        let es = t.slot.(l).(s) in
        t.slot.(l).(s) <- [];
        (* Cascade: live entries re-place strictly below level l. *)
        cascade t es;
        pop t ~limit
      end
    end
  end

and refill t ~limit =
  match t.spill with
  | [] -> none
  | e :: _ ->
    if e.time > limit then none
    else begin
      (* The wheel proper is empty and the spill head is the global
         minimum: jump to its window and pull in every spill entry
         sharing the wheel's new 13-day horizon. *)
      t.wt <- e.time;
      let top = t.wt lsr horizon_bits in
      let rec take = function
        | f :: rest when f.time lsr horizon_bits = top ->
          if is_live f then place t f else t.stored <- t.stored - 1;
          take rest
        | rest -> rest
      in
      t.spill <- take t.spill;
      pop t ~limit
    end

(* Read-only: the extracted tick's time, else the base of the first
   occupied slot of the lowest non-empty level, else the spill head.
   Every pending entry lies at or after it; a slot (or the tick)
   holding only tombstones makes it early, never late. *)
let next_time_lower_bound t =
  if t.lo < t.hi then t.wt
  else begin
    let l = ref 0 in
    while !l < levels && t.occ.(!l) = 0 do
      incr l
    done;
    if !l < levels then begin
      let l = !l in
      let shift = (l + 1) * slot_bits in
      ((t.wt lsr shift) lsl shift) lor (ctz t.occ.(l) lsl (l * slot_bits))
    end
    else match t.spill with [] -> max_int | e :: _ -> e.time
  end
