(* Host-time spans recorded around the benchmark's own calls into each
   layer, kept in memory and reported at the end.  Self time is a
   span's duration minus the part of it covered by its child spans and
   by GC spans (read from Runtime_events) that fall inside it. *)

type span = {
  name : string;
  start : int;
  stop : int;
  children : (int * int) list;  (** direct children's intervals *)
}

(* [open_] holds one child-interval accumulator per span in progress,
   innermost first. *)
type t = { mutable spans : span list; mutable open_ : (int * int) list list }

let create () = { spans = []; open_ = [] }

let record t name f =
  t.open_ <- [] :: t.open_;
  let start = Clock.now_ns () in
  let finish () =
    let stop = Clock.now_ns () in
    match t.open_ with
    | children :: rest ->
      t.spans <- { name; start; stop; children } :: t.spans;
      t.open_ <-
        (match rest with
        | siblings :: outer -> ((start, stop) :: siblings) :: outer
        | [] -> [])
    | [] -> assert false
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

(* Sorted, disjoint, non-empty intervals covering the union of the
   inputs. *)
let merge intervals =
  let sorted =
    List.sort compare (List.filter (fun (a, b) -> b > a) intervals)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (a, b) :: rest -> (
      match acc with
      | (pa, pb) :: acc' when a <= pb -> go ((pa, max pb b) :: acc') rest
      | _ -> go ((a, b) :: acc) rest)
  in
  Array.of_list (go [] sorted)

(* First index whose interval ends after [x]. *)
let first_ending_after merged x =
  let lo = ref 0 and hi = ref (Array.length merged) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if snd merged.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Length of [a, b) covered by a [merge]d interval array. *)
let covered merged a b =
  let n = Array.length merged in
  let rec go i acc =
    if i >= n then acc
    else
      let s, e = merged.(i) in
      if s >= b then acc else go (i + 1) (acc + (min e b - max s a))
  in
  if b <= a then 0 else go (first_ending_after merged a) 0

(* The part of [merged] that overlaps [a, b), clipped to it. *)
let clip merged a b =
  let n = Array.length merged in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let s, e = merged.(i) in
      if s >= b then List.rev acc else go (i + 1) ((max s a, min e b) :: acc)
  in
  go (first_ending_after merged a) []

(* [self_time s ~gc]: the duration of [s] not covered by its direct
   children or by the [merge]d GC intervals. *)
let self_time s ~gc =
  let busy = merge (s.children @ clip gc s.start s.stop) in
  s.stop - s.start - covered busy s.start s.stop

(* Self time summed per span name. *)
let self_by_name spans ~gc =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0 in
      Hashtbl.replace tbl s.name (prev + self_time s ~gc))
    spans;
  tbl
