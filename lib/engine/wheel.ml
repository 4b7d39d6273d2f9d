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
     minimum whenever the wheel proper is empty. *)

let slot_bits = 5
let slots = 32
let slot_mask = slots - 1
let levels = 10
let horizon_bits = slot_bits * levels (* 2^50 ns ≈ 13 days *)

type entry = {
  time : int;
  seq : int;
  mutable action : (unit -> unit) option;
      (* [None] once fired or cancelled: the closure is dropped the
         moment the entry dies, never when its slot drains. *)
}

type t = {
  mutable wt : int; (* wheel time *)
  slot : entry list array array; (* slot.(level).(index) *)
  occ : int array; (* per-level occupancy bitmap *)
  mutable spill : entry list; (* ascending (time, seq) *)
  mutable cur : entry list; (* extracted tick, ascending seq *)
  mutable live : int;
  mutable stored : int; (* physical entries, incl. tombstones *)
}

let create () =
  {
    wt = 0;
    slot = Array.init levels (fun _ -> Array.make slots []);
    occ = Array.make levels 0;
    spill = [];
    cur = [];
    live = 0;
    stored = 0;
  }

let live_count t = t.live
let stored_count t = t.stored
let is_live e = e.action <> None
let alive e = e.action <> None

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

let add t ~time ~seq action =
  if time < t.wt then invalid_arg "Wheel.add: time before wheel clock";
  let e = { time; seq; action = Some action } in
  place t e;
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
          let es = List.filter alive es in
          row.(s) <- es;
          if es <> [] then occ := !occ lor (1 lsl s)
      done;
      t.occ.(l) <- !occ
    end
  done;
  t.spill <- List.filter alive t.spill;
  t.cur <- List.filter alive t.cur;
  t.stored <- t.live

let cancel t e =
  match e.action with
  | None -> ()
  | Some _ ->
    e.action <- None;
    t.live <- t.live - 1;
    if t.stored >= 64 && t.stored - t.live > t.stored / 2 then compact t

let by_seq a b = Int.compare a.seq b.seq

let rec next_before t ~limit =
  match t.cur with
  | e :: rest -> (
    match e.action with
    | None ->
      (* tombstone: reclaim and keep scanning *)
      t.cur <- rest;
      t.stored <- t.stored - 1;
      next_before t ~limit
    | Some a ->
      if e.time > limit then None
      else begin
        t.cur <- rest;
        t.stored <- t.stored - 1;
        e.action <- None;
        t.live <- t.live - 1;
        Some (e.time, e.seq, a)
      end)
  | [] -> advance t ~limit

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
      if time > limit then None
      else begin
        t.wt <- time;
        t.occ.(0) <- t.occ.(0) land lnot (1 lsl s);
        t.cur <- List.sort by_seq t.slot.(0).(s);
        t.slot.(0).(s) <- [];
        next_before t ~limit
      end
    end
    else begin
      let shift = (l + 1) * slot_bits in
      let base = ((t.wt lsr shift) lsl shift) lor (s lsl (l * slot_bits)) in
      if base > limit then None
      else begin
        t.wt <- base;
        t.occ.(l) <- t.occ.(l) land lnot (1 lsl s);
        let es = t.slot.(l).(s) in
        t.slot.(l).(s) <- [];
        (* Cascade: live entries re-place strictly below level l;
           tombstones are reclaimed on the way down. *)
        List.iter
          (fun e -> if alive e then place t e else t.stored <- t.stored - 1)
          es;
        next_before t ~limit
      end
    end
  end

and refill t ~limit =
  match t.spill with
  | [] -> None
  | e :: _ ->
    if e.time > limit then None
    else begin
      (* The wheel proper is empty and the spill head is the global
         minimum: jump to its window and pull in every spill entry
         sharing the wheel's new 13-day horizon. *)
      t.wt <- e.time;
      let top = t.wt lsr horizon_bits in
      let rec take = function
        | f :: rest when f.time lsr horizon_bits = top ->
          if alive f then place t f else t.stored <- t.stored - 1;
          take rest
        | rest -> rest
      in
      t.spill <- take t.spill;
      next_before t ~limit
    end

(* Read-only: the extracted tick's time, else the base of the first
   occupied slot of the lowest non-empty level, else the spill head.
   Every pending entry lies at or after it; a slot (or the tick)
   holding only tombstones makes it early, never late. *)
let next_time_lower_bound t =
  match t.cur with
  | _ :: _ -> t.wt
  | [] ->
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
