type outcome =
  | Yield
  | Sleep of int
  | Done

type entry = {
  task : Task.t;
  step : Kernel.t -> outcome;
  mutable wake_at : int;  (* absolute cycle; 0 = runnable *)
  mutable finished : bool;
}

(* One run queue per CPU; enrollment deals tasks round-robin across them.
   At one CPU this is exactly the old single-queue scheduler. *)
type t = {
  kernel : Kernel.t;
  queues : entry list array;  (* per-CPU, round-robin order *)
  mutable next_enroll : int;
}

let runnable_count q now =
  List.length
    (List.filter (fun e -> (not e.finished) && e.wake_at <= now) q)

let create kernel =
  let t =
    { kernel;
      queues = Array.make (Kernel.cpus kernel) [];
      next_enroll = 0 }
  in
  (* Per-CPU run-queue depths as a recorder gauge.  Re-installing under
     the same name re-points the gauge at the newest scheduler, so a
     workload that builds several in sequence always samples the live
     one. *)
  Ppc.Memsys.add_gauge (Kernel.memsys kernel) ~name:"runq" (fun () ->
      let now = Kernel.cycles kernel in
      Array.map (fun q -> runnable_count q now) t.queues);
  t

let add t task step =
  let cpu = t.next_enroll mod Array.length t.queues in
  t.next_enroll <- t.next_enroll + 1;
  t.queues.(cpu) <-
    t.queues.(cpu) @ [ { task; step; wake_at = 0; finished = false } ]

let live t =
  Array.fold_left
    (fun acc q -> acc + List.length (List.filter (fun e -> not e.finished) q))
    0 t.queues

(* The earliest wake-up among unfinished processes on any queue, if any. *)
let next_wake t =
  Array.fold_left
    (fun acc q ->
      List.fold_left
        (fun acc e ->
          if e.finished then acc
          else
            match acc with
            | None -> Some e.wake_at
            | Some w -> Some (min w e.wake_at))
        acc q)
    None t.queues

let same_task a b = a.Task.pid = b.Task.pid

let first_runnable q now =
  List.find_opt (fun e -> (not e.finished) && e.wake_at <= now) q

(* Idle stealing: an empty CPU raids the queue with the most runnable
   work, but never the victim's last runnable task — migrating it buys
   nothing over letting the victim run it, and invites ping-pong. *)
let steal_from t ~thief now =
  let victim = ref (-1) and best = ref 1 in
  Array.iteri
    (fun cpu q ->
      if cpu <> thief then begin
        let n = runnable_count q now in
        if n > !best then begin
          victim := cpu;
          best := n
        end
      end)
    t.queues;
  if !victim < 0 then None
  else
    match first_runnable t.queues.(!victim) now with
    | None -> None
    | Some e ->
        t.queues.(!victim) <-
          List.filter (fun e' -> e' != e) t.queues.(!victim);
        t.queues.(thief) <- t.queues.(thief) @ [ e ];
        Kernel.note_work_steal t.kernel;
        Some e

let run t =
  let k = t.kernel in
  let n_cpus = Array.length t.queues in
  (* one service turn on [cpu]'s queue: rotate the chosen entry to the
     back, switch to it if it is not already current, run one slice *)
  let serve cpu e =
    t.queues.(cpu) <-
      List.filter (fun e' -> e' != e) t.queues.(cpu) @ [ e ];
    (match Kernel.current k with
    | Some cur when same_task cur e.task -> ()
    | Some _ | None -> Kernel.switch_to k e.task);
    let tr = Kernel.trace k in
    let traced = Ppc.Trace.enabled tr in
    let slice_start = if traced then Kernel.cycles k else 0 in
    (match e.step k with
    | Yield -> ()
    | Sleep n -> e.wake_at <- Kernel.cycles k + n
    | Done -> e.finished <- true);
    if traced then
      Ppc.Trace.emit tr Ppc.Trace.Run_slice ~pid:e.task.Task.pid ~a:cpu
        ~b:(Kernel.cycles k - slice_start)
  in
  (* each pass gives every CPU one turn; a CPU with nothing runnable
     tries to steal before conceding the turn *)
  let rec loop () =
    let ran = ref false in
    for cpu = 0 to n_cpus - 1 do
      Kernel.set_active_cpu k cpu;
      let now = Kernel.cycles k in
      match first_runnable t.queues.(cpu) now with
      | Some e ->
          ran := true;
          serve cpu e
      | None -> begin
          match
            if n_cpus > 1 then steal_from t ~thief:cpu now else None
          with
          | Some e ->
              ran := true;
              serve cpu e
          | None -> ()
        end
    done;
    if !ran then loop ()
    else
      match next_wake t with
      | None -> ()  (* everyone finished *)
      | Some wake ->
          (* nothing runnable anywhere: the idle task gets the machine *)
          Kernel.idle_for k ~cycles:(max 1 (wake - Kernel.cycles k));
          loop ()
  in
  loop ()
