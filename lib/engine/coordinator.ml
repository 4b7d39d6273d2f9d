(* Conservative-synchronization coordinator: horizon rounds over the
   member shards, with an optional work-stealing domain pool for the
   run-members step.

   Pool discipline: the calling domain is the sole Chase-Lev owner of
   every deque — it alone pushes (round-robin, to spread thieves) and
   only pops its own slot 0; workers take {e every} task via [steal],
   which is safe against a concurrent owner push by design.  This
   matters because rounds overlap at the edges: a worker woken for
   round R can still be sweeping the deques when the caller starts
   pushing round R+1, and a worker-side [pop] there would be a
   two-owner race (lost or doubled tasks).  For the same reason the
   outstanding counter is set {e before} the first push — an
   early-stolen task must have a count to decrement.

   Both rules are now machine-checked, not just argued: the pool is a
   functor over {!Mcheck_shim.PRIM}, and the [pool_*] harnesses in
   [Mcheck.Scenarios] explore every non-equivalent interleaving of a
   bounded round (round-completion signal vs [run_round]'s wait,
   shutdown broadcast vs parked workers).  [?seeded_bug] deliberately
   re-introduces the two historical orderings that PR 6's stress
   tests caught — worker-side [pop] and count-after-push — so CI can
   prove the checker still finds them ([hermes_sim mcheck --seeded]).

   After its own sweep the caller {e blocks} on a second condition
   until the outstanding counter hits zero — never busy-waits.  On an
   oversubscribed machine (domains > cores) a preempted worker can
   hold the round's last task for a full scheduler quantum; a spinning
   caller would burn exactly the CPU that worker needs, turning every
   round into a context-switch storm.  Shard tasks never spawn
   subtasks, so a worker that finds every deque empty can park for the
   next round. *)

type seeded_bug = [ `Two_owner_pop | `Count_after_push ]

module Pool_make (P : Mcheck_shim.PRIM) = struct
  module TD = Task_deque.Make (P)

  type t = {
    deques : (unit -> unit) TD.t array; (* slot 0 = caller *)
    mutable workers : P.Thread.t array;
    mutex : P.Mutex.t;
    cond : P.Condition.t;
    done_cond : P.Condition.t; (* round's last task completed *)
    round : int P.Plain.t;
    stop : bool P.Plain.t;
    remaining : int P.Atomic.t;
    bug : seeded_bug option;
  }

  let run_task p task =
    task ();
    if P.Atomic.fetch_and_add p.remaining (-1) = 1 then begin
      (* Last task of the round: wake the caller if it is parked in
         [run_round].  Taking the mutex orders this signal after the
         caller's own remaining-check-then-wait. *)
      P.Mutex.lock p.mutex;
      P.Condition.signal p.done_cond;
      P.Mutex.unlock p.mutex
    end

  (* The caller (slot 0) pops its own deque dry then steals from the
     rest; workers are pure thieves over every deque, starting at
     their slot so contention spreads.  Return when a full sweep finds
     nothing. *)
  let work p ~slot =
    let n = Array.length p.deques in
    (* Workers must never [pop]: the caller is the sole owner of every
       deque.  [`Two_owner_pop] re-introduces the historical bug for
       the model-check regression gate. *)
    let take d =
      if slot <> 0 && p.bug = Some `Two_owner_pop then TD.pop d else TD.steal d
    in
    let rec own () =
      if slot = 0 then
        match TD.pop p.deques.(0) with
        | Some task ->
          run_task p task;
          own ()
        | None -> sweep 1
      else sweep 0
    and sweep i =
      if i < n then
        match take p.deques.((slot + i) mod n) with
        | Some task ->
          run_task p task;
          own ()
        | None -> sweep (i + 1)
    in
    own ()

  let worker_loop p slot =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      P.Mutex.lock p.mutex;
      while P.Plain.get p.round = !seen && not (P.Plain.get p.stop) do
        P.Condition.wait p.cond p.mutex
      done;
      let stop = P.Plain.get p.stop in
      seen := P.Plain.get p.round;
      P.Mutex.unlock p.mutex;
      if stop then running := false else work p ~slot
    done

  let create ?seeded_bug ~domains () =
    let deques =
      Array.init domains (fun i ->
          TD.create
            ~check_owner:(seeded_bug = None)
            ~name:(Printf.sprintf "deque%d" i)
            ())
    in
    let p =
      {
        deques;
        workers = [||];
        mutex = P.Mutex.create ~name:"pool.mutex" ();
        cond = P.Condition.create ~name:"pool.round_cond" ();
        done_cond = P.Condition.create ~name:"pool.done_cond" ();
        round = P.Plain.make ~name:"pool.round" 0;
        stop = P.Plain.make ~name:"pool.stop" false;
        remaining = P.Atomic.make ~name:"pool.remaining" 0;
        bug = seeded_bug;
      }
    in
    p.workers <-
      Array.init (domains - 1) (fun i ->
          P.Thread.spawn
            ~name:(Printf.sprintf "worker%d" (i + 1))
            (fun () -> worker_loop p (i + 1)));
    p

  let run_round p tasks =
    let n = Array.length p.deques in
    let count () = P.Atomic.set p.remaining (List.length tasks) in
    let push_all () =
      List.iteri (fun i task -> TD.push p.deques.(i mod n) task) tasks
    in
    (* Count before the first push: a late worker from the previous
       round can steal a task the instant it lands.  [`Count_after_push]
       inverts the order to re-seed the lost-count bug for mcheck. *)
    (match p.bug with
    | Some `Count_after_push ->
      push_all ();
      count ()
    | _ ->
      count ();
      push_all ());
    P.Mutex.lock p.mutex;
    P.Plain.set p.round (P.Plain.get p.round + 1);
    P.Condition.broadcast p.cond;
    P.Mutex.unlock p.mutex;
    (* The caller is pool slot 0. *)
    work p ~slot:0;
    (* Every deque is dry but a worker may still be running the
       round's tail (tasks spawn no subtasks, so there is nothing left
       to help with): block until the last completion signals. *)
    P.Mutex.lock p.mutex;
    while P.Atomic.get p.remaining > 0 do
      P.Condition.wait p.done_cond p.mutex
    done;
    P.Mutex.unlock p.mutex

  let shutdown p =
    P.Mutex.lock p.mutex;
    P.Plain.set p.stop true;
    P.Condition.broadcast p.cond;
    P.Mutex.unlock p.mutex;
    Array.iter P.Thread.join p.workers
end

module Pool = Pool_make (Mcheck_shim.Real)

type t = {
  control : Shard.t;
  mutable members : Shard.t array; (* ascending shard id *)
  domains : int;
  mutable pool : Pool.t option;
  mutable horizon : Sim_time.t;
  mutable stopped : bool;
}

let create ~control ~domains =
  if domains < 1 then invalid_arg "Coordinator.create: domains must be >= 1";
  { control; members = [||]; domains; pool = None; horizon = 0; stopped = false }

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

let pool t =
  match t.pool with
  | Some p -> p
  | None ->
    let p = Pool.create ~domains:t.domains () in
    t.pool <- Some p;
    p

(* O(members with work due): an idle member only has its clocks set
   (Shard.skip_idle), so the pool sees busy members alone and a round
   with at most one of them never leaves the calling domain. *)
let run_members t ~limit =
  let members = t.members in
  if t.domains = 1 then
    for i = 0 to Array.length members - 1 do
      Shard.run_to members.(i) ~limit
    done
  else begin
    let busy = ref [] in
    for i = Array.length members - 1 downto 0 do
      let m = members.(i) in
      if not (Shard.skip_idle m ~limit) then busy := m :: !busy
    done;
    match !busy with
    | [] -> ()
    | [ m ] -> Shard.run_to m ~limit
    | busy ->
      Pool.run_round (pool t)
        (List.map (fun m () -> Shard.run_to m ~limit) busy)
  end

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

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    match t.pool with
    | None -> ()
    | Some p ->
      t.pool <- None;
      Pool.shutdown p
  end
