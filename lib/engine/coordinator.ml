(* Conservative-synchronization coordinator: horizon rounds over the
   member shards, each stepped in shard-id order on the calling
   domain. *)

type t = {
  control : Shard.t;
  mutable members : Shard.t array; (* ascending shard id *)
  mutable horizon : Sim_time.t;
}

let create ~control = { control; members = [||]; horizon = 0 }

let find t id =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let m = t.members.(mid) in
      let c = Int.compare (Shard.id m) id in
      if c = 0 then Some m else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.members)

let add t shard =
  let id = Shard.id shard in
  if id = Shard.id t.control then
    invalid_arg "Coordinator.add: shard id collides with the control LP";
  if find t id <> None then
    invalid_arg (Printf.sprintf "Coordinator.add: duplicate shard id %d" id);
  (* A shard joining mid-run starts at the fleet's horizon, not at 0
     (no-op when the caller already aligned it before populating it). *)
  if Sim.now (Shard.sim shard) < t.horizon then Shard.run_to shard ~limit:t.horizon;
  let members = Array.append t.members [| shard |] in
  Array.stable_sort (fun a b -> Int.compare (Shard.id a) (Shard.id b)) members;
  t.members <- members

let remove t id =
  t.members <-
    Array.of_list
      (List.filter (fun m -> Shard.id m <> id) (Array.to_list t.members))

let members t = Array.to_list t.members
let horizon t = t.horizon

let message_order (a : Shard.message) (b : Shard.message) =
  match compare a.at b.at with
  | 0 -> ( match compare a.src b.src with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

let rec deliver_all t = function
  | [] -> ()
  | (msg : Shard.message) :: rest ->
    (if msg.dst = Shard.id t.control then Shard.deliver t.control msg
     else
       (* A missing destination was removed since the send: drop. *)
       match find t msg.dst with
       | None -> ()
       | Some shard -> Shard.deliver shard msg);
    deliver_all t rest

let deliver_sorted t msgs = deliver_all t (List.sort message_order msgs)

(* O(members with work due): [Shard.run_to] only sets an idle
   member's clocks. *)
let run_members t ~limit =
  let members = t.members in
  for i = 0 to Array.length members - 1 do
    Shard.run_to members.(i) ~limit
  done

let collect_mail t =
  let mail = ref [] in
  for i = 0 to Array.length t.members - 1 do
    mail := List.rev_append (Shard.drain_outbox t.members.(i)) !mail
  done;
  !mail

let advance t ~horizon =
  if horizon < t.horizon then
    invalid_arg
      (Printf.sprintf "Coordinator.advance: horizon %d is behind %d" horizon
         t.horizon);
  deliver_sorted t (Shard.drain_outbox t.control);
  run_members t ~limit:horizon;
  t.horizon <- horizon;
  deliver_sorted t (collect_mail t)
