(* Model-check harnesses for the concurrent protocols the simulator
   still relies on.

   Each scenario is a small, bounded program over {!Model.P} whose
   final assertion states the protocol's contract.  Clean scenarios
   must explore with no counterexample and no data race; [bug]
   scenarios deliberately re-introduce an ordering bug and the checker
   must find it (that is the CI regression gate for the checker
   itself: if exploration or the dependency analysis rots, the seeded
   bugs stop being found). *)

module P = Model.P

type t = {
  name : string;
  descr : string;
  bug : bool;
  config : Model.config;
  run : Model.config -> Model.outcome;
}

(* Model replica of the Trace sink publication protocol
   (lib/trace/trace.ml): the [active_sinks] gate is incremented before
   a state with a live sink becomes visible to any domain, so a domain
   that adopted such a state can never read the gate as 0 and drop a
   record; and the hand-off through the atomic cell orders the plain
   state-field accesses (no race reported).  [~late_gate] raises the
   gate only after the hand-off: a domain that adopts the state in
   between reads the gate as 0 and drops its record, which the checker
   must find. *)
let trace_publication ~late_gate config =
  let name = if late_gate then "trace_publication_late_gate" else "trace_publication" in
  Model.check ~config ~name (fun () ->
      let active = P.Atomic.make ~name:"active_sinks" 0 in
      let published = P.Atomic.make ~name:"state.cell" 0 in
      let st_active = P.Plain.make ~name:"state.active" false in
      let emitted = ref 0 and dropped = ref 0 and adopted = ref false in
      let consumer =
        P.Thread.spawn ~name:"shard" (fun () ->
            if P.Atomic.get published = 1 then begin
              adopted := true;
              (* emit fast path: one atomic load gates the sink lookup *)
              if P.Atomic.get active > 0 then begin
                if P.Plain.get st_active then incr emitted
              end
              else incr dropped;
              (* uninstall: clear the sink, then release the gate *)
              P.Plain.set st_active false;
              P.Atomic.decr active
            end)
      in
      (* make_state: gate up BEFORE the state is visible to any domain *)
      if not late_gate then P.Atomic.incr active;
      P.Plain.set st_active true;
      P.Atomic.set published 1 (* swap_state hand-off *);
      if late_gate then P.Atomic.incr active;
      P.Thread.join consumer;
      if !adopted && !dropped > 0 then
        failwith "live sink but gate read 0: record dropped";
      if !adopted && !emitted <> 1 then failwith "adopted sink did not emit")

let all =
  [
    {
      name = "trace_publication";
      descr = "active_sinks gate up before the state is published";
      bug = false;
      config = Model.default_config;
      run = trace_publication ~late_gate:false;
    };
    {
      name = "trace_publication_late_gate";
      descr = "SEEDED BUG: active_sinks gate raised after the state is published";
      bug = true;
      config = Model.default_config;
      run = trace_publication ~late_gate:true;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let evaluate sc (o : Model.outcome) =
  if sc.bug then
    match o.counterexample with
    | Some c ->
      ( true,
        Printf.sprintf "seeded bug found (%s) after %d interleavings" c.kind
          o.executions )
    | None ->
      ( false,
        if o.budget_exhausted then
          "budget exhausted without finding the seeded bug"
        else "seeded bug NOT found: explorer or dependency analysis regressed"
      )
  else
    match o.counterexample with
    | Some c -> (false, Printf.sprintf "counterexample (%s): %s" c.kind c.message)
    | None -> (
      match o.races with
      | _ :: _ as races ->
        ( false,
          "data race on "
          ^ String.concat ", "
              (List.sort_uniq compare (List.map (fun r -> r.Model.loc) races)) )
      | [] ->
        if o.budget_exhausted then (false, "exploration budget exhausted")
        else
          ( true,
            Printf.sprintf "clean: %d interleavings, %d pruned" o.executions
              o.prunes ))
