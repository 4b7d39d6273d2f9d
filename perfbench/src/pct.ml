(* Percentiles and the rule that decides which ones a sample supports. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let rank ~n p =
  let x = p /. 100.0 *. float_of_int n in
  (* 99.9% of 10000 is 9990, not the 9991 its rounding error would give *)
  let r = Float.round x in
  let x = if Float.abs (x -. r) <= 1e-9 *. Float.max 1.0 x then r else x in
  max 1 (int_of_float (Float.ceil x))

let of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.of_sorted: empty sample";
  sorted.(min n (rank ~n p) - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = of_sorted (sorted_copy a) 50.0

(* Samples strictly beyond the nearest-rank position of [p]. *)
let beyond ~n p = n - rank ~n p

(* The highest of [candidates] that leaves at least [min_beyond]
   samples above it, or [None] when even the lowest does not.  A
   tail percentile is reported only when this rule reaches it. *)
let highest_supported ?(min_beyond = 10) ~n candidates =
  List.fold_left
    (fun best p ->
      if beyond ~n p >= min_beyond then
        match best with Some b when b >= p -> best | _ -> Some p
      else best)
    None candidates
