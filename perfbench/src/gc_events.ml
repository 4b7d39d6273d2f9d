(* GC spans of this process, read in-process through Runtime_events.

   The runtime writes its events to a ring file in
   OCAML_RUNTIME_EVENTS_DIR (run.py points it at a scratch
   directory); [poll] drains the ring into per-domain spans.  Runtime
   phases nest, so a GC span is an outermost phase: from the first
   [runtime_begin] at depth 0 to the [runtime_end] that returns the
   domain to depth 0.  Domain condition waits are idle time, not GC,
   and are dropped. *)

module RE = Runtime_events

let max_rings = 128

type t = {
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  spans : (int * int * int) list ref;  (** (ring, start, stop), newest first *)
  lost : int ref;
}

let ts stamp = Int64.to_int (RE.Timestamp.to_int64 stamp)

let start () =
  RE.start ();
  let depth = Array.make max_rings 0 in
  let opened = Array.make max_rings 0 in
  (* the outermost open phase is a condition wait *)
  let idle = Array.make max_rings false in
  let spans = ref [] and lost = ref 0 in
  let runtime_begin ring stamp phase =
    if ring < max_rings then begin
      if depth.(ring) = 0 then begin
        opened.(ring) <- ts stamp;
        idle.(ring) <- phase = RE.EV_DOMAIN_CONDITION_WAIT
      end;
      depth.(ring) <- depth.(ring) + 1
    end
  in
  let runtime_end ring stamp _ =
    if ring < max_rings && depth.(ring) > 0 then begin
      depth.(ring) <- depth.(ring) - 1;
      if depth.(ring) = 0 && not idle.(ring) then
        spans := (ring, opened.(ring), ts stamp) :: !spans
    end
  in
  let lost_events ring n =
    lost := !lost + n;
    if ring < max_rings then depth.(ring) <- 0
  in
  {
    cursor = RE.create_cursor None;
    callbacks = RE.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    spans;
    lost;
  }

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)
let lost t = !(t.lost)

(* Spans of every ring, oldest first. *)
let spans t = List.rev !(t.spans)

let stop t =
  poll t;
  RE.free_cursor t.cursor;
  RE.pause ()
