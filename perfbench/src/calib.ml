(* Host-speed normalisation.

   The hosts this benchmark runs on are shared, and their speed drifts
   by tens of percent within seconds (frequency, neighbours on the same
   cores and memory).  While a repetition runs, the benchmark times a
   fixed reference kernel between slices, about every 20 ms of host
   time: small allocations, hash-table probes and float arithmetic,
   the kinds of work the simulator does, using only the standard
   library so the kernel never changes with the simulator.  Host times
   are reported at reference speed: scaled by [nominal_ns] over the
   kernel's median time during the repetition.

   Timing the kernel only before and after each repetition, or using
   an integer-only or pointer-chasing kernel, did not track the drift
   (plan.json gives the trials).  The kernel runs outside the timed
   slices and costs about 2% of a run's host time; its allocation is
   subtracted from the repetition's minor-word count. *)

let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 and l = ref [] and x = ref 1.0 in
  for i = 0 to 4_999 do
    let k = (i * 7919) land 8191 in
    (match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h k i);
    if i land 3 = 0 then l := (i, !x) :: !l;
    if i land 1023 = 0 then l := [];
    x := (!x *. 1.000001) +. 1e-9
  done;
  !acc + List.length !l + int_of_float !x

(* About the kernel's median time on the 2-vCPU x86-64 container the
   baseline was recorded on, so reference-speed figures read as host
   time there. *)
let nominal_ns = 400_000.0

(* Kernel samples of one repetition, taken between slices.  The
   kernel's own allocation is tallied so the repetition's minor-word
   count can exclude it. *)
type t = {
  times : float array;  (** ns per sample; the first [runs] are set *)
  mutable runs : int;
  mutable last : int;
  mutable words : int;
}

let max_samples = 1 lsl 14

let create () = { times = Array.make max_samples 0.0; runs = 0; last = 0; words = 0 }

let sample t =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Clock.now_ns () in
  t.words <- t.words + int_of_float (Gc.minor_words () -. w0);
  if t.runs < max_samples then begin
    t.times.(t.runs) <- float_of_int (t1 - t0);
    t.runs <- t.runs + 1
  end;
  t.last <- t1

(* Sample once [every_ns] of host time has passed since the last
   sample. *)
let every_ns = 20_000_000

let due t = Clock.now_ns () - t.last >= every_ns

(* Median kernel time, in ns: a sample that a minor collection of the
   simulator's young heap happened to land in reads long. *)
let median_ns t =
  if t.runs = 0 then nominal_ns else Pct.median (Array.sub t.times 0 t.runs)

(* Factor that converts host time measured beside a kernel time of
   [ref_ns] to reference speed. *)
let factor ref_ns = nominal_ns /. ref_ns
