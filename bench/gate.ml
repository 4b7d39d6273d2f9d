(* The regression gate: each group declares, next to its scenarios,
   which rules each of its rows must satisfy against the committed
   baseline row of the same key.  A row with no baseline row fails.

   A metric value below zero means "not measured" (see [Row]); the
   rules that say "when measured" skip such values. *)

type rule =
  | Ratio of string * float  (** [Ratio (m, k)]: [m >= k * baseline m]. *)
  | Floor of string * float  (** [Floor (m, x)]: [m >= x]. *)
  | Zero of string  (** [m <= 0]: exactly zero when measured. *)
  | Equal of string  (** [m = baseline m]. *)
  | Ceiling of string * float * float
      (** [Ceiling (m, k, slack)]: [m <= k * baseline m + slack], when
          both are measured. *)
  | Equal_row of string * string
      (** [Equal_row (m, other)]: [m] equals [m] of row [other] (same
          group and size) in this run. *)
  | Speedup of string * string * float
      (** [Speedup (m, other, k)]: [other.m / m >= k *] the same ratio
          in the baseline, applied only when the row's [cores] equal the
          baseline row's (wall-clock ratios are a machine property). *)

type group = {
  id : string;
  title : string;
  sized : bool;  (** rows carry size = full | quick *)
  cores : bool;  (** rows carry the machine's core count *)
  scenarios : quick:bool -> (string * (unit -> (string * float) list)) list;
  rules : string -> rule list;  (** by row name *)
}

let size g ~quick = if not g.sized then None else Some (if quick then "quick" else "full")

let keys g ~quick =
  List.map (fun (name, _) -> (g.id, name, size g ~quick)) (g.scenarios ~quick)

let run g ~quick =
  List.map
    (fun (name, metrics) ->
      {
        Row.group = g.id;
        name;
        size = size g ~quick;
        cores = (if g.cores then Some (Domain.recommended_domain_count ()) else None);
        metrics = metrics ();
      })
    (g.scenarios ~quick)

let check groups ~baseline rows =
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline m;
        ok := false)
      fmt
  in
  let find rows (group, name, size) =
    List.find_opt (fun r -> Row.key r = (group, name, size)) rows
  in
  List.iter
    (fun (r : Row.t) ->
      let what = Row.label r in
      let get (row : Row.t) m =
        match Row.metric row m with
        | Some v -> Some v
        | None ->
          fail "bench: %s has no %s metric" (Row.label row) m;
          None
      in
      let rule (b : Row.t) = function
        | Ratio (m, k) -> (
          match (get r m, get b m) with
          | Some v, Some base when v < k *. base ->
            fail "bench REGRESSION: %s %s %.3f < %g * baseline %.3f" what m v k base
          | _ -> ())
        | Floor (m, x) -> (
          match get r m with
          | Some v when v < x -> fail "bench REGRESSION: %s %s %.3f < floor %g" what m v x
          | _ -> ())
        | Zero m -> (
          match get r m with
          | Some v when v > 0.0 -> fail "bench REGRESSION: %s %s %g (want 0)" what m v
          | _ -> ())
        | Equal m -> (
          match (get r m, get b m) with
          | Some v, Some base when v <> base ->
            fail "bench REGRESSION: %s %s %g <> baseline %g" what m v base
          | _ -> ())
        | Ceiling (m, k, slack) -> (
          match (get r m, get b m) with
          | Some v, Some base when v >= 0.0 && base >= 0.0 && v > (k *. base) +. slack ->
            fail "bench REGRESSION: %s %s %g > %g * baseline %g + %g" what m v k base slack
          | _ -> ())
        | Equal_row (m, other) -> (
          match find rows (r.group, other, r.size) with
          | None -> fail "bench: %s: no %s row in this run" what other
          | Some o -> (
            match (get r m, get o m) with
            | Some v, Some v' when v <> v' ->
              fail "bench REGRESSION: %s %s %g <> %s's %g" what m v other v'
            | _ -> ()))
        | Speedup (m, other, k) ->
          if r.cores <> b.cores then
            Printf.printf
              "bench: %s: baseline cores=%s, machine cores=%s; skipping its speedup gate\n"
              what
              (Option.fold b.cores ~none:"?" ~some:string_of_int)
              (Option.fold r.cores ~none:"?" ~some:string_of_int)
          else (
            match (find rows (r.group, other, r.size), find baseline (r.group, other, r.size)) with
            | Some o, Some bo -> (
              match (get r m, get o m, get b m, get bo m) with
              | Some v, Some ov, Some bv, Some bov when v > 0. && bv > 0. && bov > 0. ->
                let speedup = ov /. v and base = bov /. bv in
                if speedup < k *. base then
                  fail "bench REGRESSION: %s speedup over %s %.2fx < %g * baseline %.2fx" what
                    other speedup k base
              | _ -> ())
            | _ -> ())
      in
      let g = List.find (fun g -> g.id = r.group) groups in
      match find baseline (Row.key r) with
      | None -> fail "bench: no baseline row for %s" what
      | Some b -> List.iter (rule b) (g.rules r.name))
    rows;
  if !ok then Printf.printf "bench: regression gate passed (%d rows)\n" (List.length rows);
  !ok
