(* perfbench: host cost of the simulator per simulated request.

   perfbench_main.exe --workload NAME --seed N --seconds S --trace 0|1
                      [--scratch DIR] [--rev REV]

   Prints one line per metric, then the result as one JSON object on
   the last line.  --trace 0 reports the end-to-end metrics, --trace 1
   the per-layer ones from a separate traced run.  Exits 0 when the run
   completed; the output check's verdict is the result's "correct". *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perfbench_main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--scratch DIR] [--rev REV]";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

let () =
  let args = parse Sys.argv in
  let arg name = List.assoc_opt name args in
  let int_arg name =
    match Option.bind (arg name) int_of_string_opt with Some n -> n | None -> usage ()
  in
  let mix =
    match Option.bind (arg "workload") Mix.find with
    | Some m -> m
    | None ->
      Printf.eprintf "unknown workload; known: %s\n"
        (String.concat ", " (List.map (fun m -> m.Mix.name) Mix.all));
      exit 2
  in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let traced = int_arg "trace" = 1 in
  let scratch = Option.value (arg "scratch") ~default:Filename.current_dir_name in
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s rev=%s\n%!"
    mix.Mix.name seed seconds traced nproc Sys.ocaml_version
    (Option.value (arg "rev") ~default:"unknown");
  let metrics, reps, notes =
    if traced then
      let r = Traced.run mix ~seed ~seconds ~nproc ~scratch in
      (r.Traced.metrics, r.Traced.reps, r.Traced.notes)
    else Bench.run mix ~seed ~seconds ~shards:1
  in
  List.iter print_endline notes;
  let check = Bench.check reps in
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) check.Bench.problems;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  List.iter
    (fun (name, v) -> Printf.printf "%-34s %16s %s\n" name (Report.number v) (Report.unit_of name))
    metrics;
  print_endline
    (Report.result_line
       ~correct:(check.Bench.problems = [] && finite)
       ~attempted:check.Bench.attempted ~failed:check.Bench.failed
       (List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) metrics))
