module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type op =
  | Connect of { at : Sim_time.t; key : int; tenant : int }
  | Send of {
      at : Sim_time.t;
      key : int;
      op_class : Lb.Request.op;
      size : int;
      cost : Sim_time.t;
    }
  | Close of { at : Sim_time.t; key : int }

type trace = {
  script : op array;
  conn_count : int;
  last : Bytes.t; (* ['\001'] at the last op of each connection key *)
}

let at_of = function
  | Connect { at; _ } | Send { at; _ } | Close { at; _ } -> at

let key_of = function
  | Connect { key; _ } | Send { key; _ } | Close { key; _ } -> key

let make script ~conn_count =
  let last = Bytes.make (Array.length script) '\000' in
  let seen = Hashtbl.create 1024 in
  for i = Array.length script - 1 downto 0 do
    let key = key_of script.(i) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      Bytes.set last i '\001'
    end
  done;
  { script; conn_count; last }

let record ~profile ~tenants ~duration ~rng =
  if tenants <= 0 then invalid_arg "Replay.record: tenants must be positive";
  let pick_tenant = Profile.tenant_picker profile ~tenants rng in
  let ops = ref [] in
  let key = ref 0 in
  let clock = ref 0 in
  let next_gap () =
    max 1
      (Sim_time.of_sec_f
         (Engine.Dist.sample
            (Engine.Dist.exponential ~mean:(1.0 /. profile.Profile.cps))
            rng))
  in
  clock := next_gap ();
  while !clock < duration do
    incr key;
    let k = !key in
    ops := Connect { at = !clock; key = k; tenant = pick_tenant () } :: !ops;
    let n_requests =
      max 1
        (int_of_float
           (Float.round (Engine.Dist.sample profile.Profile.requests_per_conn rng)))
    in
    let t = ref !clock in
    for _ = 1 to n_requests do
      t :=
        !t
        + max 1
            (Sim_time.of_sec_f (Engine.Dist.sample profile.Profile.request_gap rng));
      if !t < duration then begin
        let op_class = Profile.pick_op profile rng in
        let size =
          max 0 (int_of_float (Engine.Dist.sample profile.Profile.request_size rng))
        in
        let cost =
          max 1
            (Sim_time.of_sec_f
               (Engine.Dist.sample profile.Profile.processing_time rng))
        in
        ops := Send { at = !t; key = k; op_class; size; cost } :: !ops
      end
    done;
    if !t < duration then ops := Close { at = !t; key = k } :: !ops;
    clock := !clock + next_gap ()
  done;
  (* stable sort: ties keep generation order, so serialization round
     trips exactly *)
  let script =
    Array.of_list
      (List.stable_sort (fun a b -> compare (at_of a) (at_of b)) (List.rev !ops))
  in
  make script ~conn_count:!key

let length t = Array.length t.script
let connections t = t.conn_count
let ops t = Array.to_list t.script

(* Client-side view of one connection during replay. *)
type conn_state = {
  mutable conn : Lb.Conn.t option;
  mutable buffered : Lb.Request.t list; (* reversed *)
  mutable want_close : bool;
  mutable dead : bool;
}

let replay t ~device ~rate =
  if rate <= 0.0 then invalid_arg "Replay.replay: rate must be positive";
  let sim = Lb.Device.sim device in
  let base = Sim.now sim in
  let states = Hashtbl.create 1024 in
  let state_of key =
    match Hashtbl.find states key with
    | s -> s
    | exception Not_found ->
      let s = { conn = None; buffered = []; want_close = false; dead = false } in
      Hashtbl.replace states key s;
      s
  in
  let flush s =
    match s.conn with
    | None -> ()
    | Some conn ->
      List.iter
        (fun req -> ignore (Lb.Device.send device conn req))
        (List.rev s.buffered);
      s.buffered <- [];
      if s.want_close then Lb.Device.close_conn device conn
  in
  let run_op i =
    match t.script.(i) with
    | Connect { key; tenant; _ } ->
      let s = state_of key in
      let events =
        {
          Lb.Device.null_conn_events with
          established =
            (fun conn ->
              s.conn <- Some conn;
              flush s);
          reset = (fun _ -> s.dead <- true);
          dispatch_failed = (fun () -> s.dead <- true);
        }
      in
      Lb.Device.connect device ~tenant ~events
    | Send { key; op_class; size; cost; _ } ->
      let s = state_of key in
      if not s.dead then begin
        (* A request buffered before establishment keeps tenant 0. *)
        let tenant_id =
          match s.conn with Some conn -> conn.Lb.Conn.tenant_id | None -> 0
        in
        let req =
          Lb.Request.make ~id:(Lb.Device.fresh_id device) ~op:op_class ~size
            ~cost ~tenant_id
        in
        match s.conn with
        | Some conn -> ignore (Lb.Device.send device conn req)
        | None -> s.buffered <- req :: s.buffered
      end
    | Close { key; _ } -> (
      let s = state_of key in
      match s.conn with
      | Some conn when not s.dead -> Lb.Device.close_conn device conn
      | _ -> s.want_close <- true)
  in
  (* A key's state is dropped with its last op: later callbacks hold the
     state itself, and no later op looks the key up again. *)
  let run i =
    run_op i;
    if Bytes.get t.last i = '\001' then Hashtbl.remove states (key_of t.script.(i))
  in
  (* One pending event for the whole script: the feed reserves the
     script's block of sequence numbers here, where scheduling every op
     up front would have, so the firing order is unchanged. *)
  Sim.feed sim ~n:(Array.length t.script)
    ~at:(fun i -> base + int_of_float (float_of_int (at_of t.script.(i)) /. rate))
    ~run

(* --- persistence: "hermes-trace v1", one op per line ---------------- *)

let header = "# hermes-trace v1"

let to_string t =
  let buf = Buffer.create (64 * Array.length t.script) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "conns %d\n" t.conn_count);
  Array.iter
    (fun op ->
      (match op with
      | Connect { at; key; tenant } ->
        Buffer.add_string buf (Printf.sprintf "C %d %d %d" at key tenant)
      | Send { at; key; op_class; size; cost } ->
        Buffer.add_string buf
          (Printf.sprintf "S %d %d %s %d %d" at key
             (Lb.Request.op_name op_class) size cost)
      | Close { at; key } ->
        Buffer.add_string buf (Printf.sprintf "X %d %d" at key));
      Buffer.add_char buf '\n')
    t.script;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | h :: rest when String.equal h header -> (
    let parse_line acc line =
      match acc with
      | Error _ -> acc
      | Ok (conns, ops) -> (
        if String.length line = 0 then acc
        else
          match String.split_on_char ' ' line with
          | [ "conns"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> Ok (Some n, ops)
            | _ -> Error (Printf.sprintf "bad conns line: %S" line))
          | [ "C"; at; key; tenant ] -> (
            match
              (int_of_string_opt at, int_of_string_opt key, int_of_string_opt tenant)
            with
            | Some at, Some key, Some tenant ->
              Ok (conns, Connect { at; key; tenant } :: ops)
            | _ -> Error (Printf.sprintf "bad connect line: %S" line))
          | [ "S"; at; key; op; size; cost ] -> (
            match
              ( int_of_string_opt at,
                int_of_string_opt key,
                Lb.Request.op_of_name op,
                int_of_string_opt size,
                int_of_string_opt cost )
            with
            | Some at, Some key, Some op_class, Some size, Some cost ->
              Ok (conns, Send { at; key; op_class; size; cost } :: ops)
            | _ -> Error (Printf.sprintf "bad send line: %S" line))
          | [ "X"; at; key ] -> (
            match (int_of_string_opt at, int_of_string_opt key) with
            | Some at, Some key -> Ok (conns, Close { at; key } :: ops)
            | _ -> Error (Printf.sprintf "bad close line: %S" line))
          | _ -> Error (Printf.sprintf "unrecognized line: %S" line))
    in
    match List.fold_left parse_line (Ok (None, [])) rest with
    | Error e -> Error e
    | Ok (None, _) -> Error "missing conns line"
    | Ok (Some conn_count, ops) ->
      let script =
        Array.of_list
          (List.stable_sort
             (fun a b -> compare (at_of a) (at_of b))
             (List.rev ops))
      in
      Ok (make script ~conn_count))
  | _ -> Error "not a hermes-trace v1 file"

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        of_string (really_input_string ic len))
