(* Timing, allocation and memory probes shared by the bench groups. *)

let mix i = (i * 0x61C88647) lxor (i lsr 7)

(* Best-of-[reps] wall time of [f] in ns, with the checksum [f]
   returns; every repetition must return the same checksum. *)
let time_best ~reps f =
  let best = ref infinity in
  let first = ref 0 in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    if i = 0 then first := r
    else if r <> !first then failwith "bench: scenario is nondeterministic across reps"
  done;
  (!best *. 1e9, !first)

(* [time_best] of a fast path and of the baseline it replaced, which
   must agree on the checksum: (fast ns, baseline ns, checksum). *)
let pair ~name ~reps fast base =
  let fast_ns, cf = time_best ~reps fast in
  let base_ns, cb = time_best ~reps base in
  if cf <> cb then
    failwith
      (Printf.sprintf "bench %s: fast path and baseline disagree (checksums %d vs %d)" name
         cf cb);
  (fast_ns, base_ns, cf)

(* Minor-word accounting only means something on an uninstrumented
   native runtime; calibrate with a loop known to allocate nothing. *)
let calibrated =
  lazy
    (match Sys.backend_type with
    | Sys.Native ->
      let arr = Array.make 64 1 in
      let sink = ref 0 in
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        for i = 0 to 63 do
          sink := !sink + Array.unsafe_get arr i
        done
      done;
      ignore !sink;
      Gc.minor_words () -. before < 256.0
    | _ -> false)

(* Minor words per op of [f] (which runs [ops] ops), -1 where the
   runtime cannot measure it. *)
let words_per_op ~ops f =
  if not (Lazy.force calibrated) then -1.0
  else begin
    f ();
    (* warm *)
    let before = Gc.minor_words () in
    f ();
    let d = Gc.minor_words () -. before in
    (* the two probes box a handful of words themselves *)
    if d < 64.0 then 0.0 else d /. float_of_int ops
  end

(* The metrics of a per-op fast/baseline pair: ns/op of each side,
   their ratio (> 1 means the fast path is faster), the fast path's
   minor words/op and the shared checksum. *)
let per_op ~name ~reps ~ops ~fast ~base ~words =
  let fast_total, base_total, checksum = pair ~name ~reps fast base in
  let n = float_of_int ops in
  [
    ("fast_ns", fast_total /. n);
    ("base_ns", base_total /. n);
    ("speedup", base_total /. fast_total);
    ("fast_words", words_per_op ~ops words);
    ("checksum", float_of_int checksum);
  ]

(* VmHWM from /proc/self/status: the peak resident set since the
   process started, in kB.  -1 where procfs is unavailable. *)
let max_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> -1
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | v :: _ -> int_of_string_opt v
             | [] -> None)
           | _ -> None)
    |> Option.value ~default:(-1)
