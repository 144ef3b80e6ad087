module Kernel = Kernel_sim.Kernel

type wstat =
  | Exited of int
  | Signaled of int

type outcome =
  | Done of Experiments.table
  | Failed of string
  | Crashed of wstat
  | Timed_out of float
  | Retried of int * outcome

let rec table_of_outcome = function
  | Done t -> Some t
  | Retried (_, o) -> table_of_outcome o
  | Failed _ | Crashed _ | Timed_out _ -> None

(* OCaml renumbers signals (Sys.sigkill is -7, not 9); name the common
   ones so failure tables read like a shell's, not like the runtime's. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigalrm then "SIGALRM"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigpipe then "SIGPIPE"
  else if s = Sys.sigquit then "SIGQUIT"
  else if s = Sys.sighup then "SIGHUP"
  else Printf.sprintf "signal %d" s

let rec describe = function
  | Done _ -> "ok"
  | Failed m -> "failed: " ^ m
  | Crashed (Exited c) -> Printf.sprintf "worker exited with status %d" c
  | Crashed (Signaled s) -> "worker killed by " ^ signal_name s
  | Timed_out t -> Printf.sprintf "timed out after %gs" t
  | Retried (n, o) ->
      Printf.sprintf "%s (after %d retr%s)" (describe o) n
        (if n = 1 then "y" else "ies")

(* ------------------------------------------------------ fault injection

   MMU_SIM_FAULT holds a comma-separated list of deterministic faults,
   each targeting one experiment id, applied at the moment the
   experiment is about to run (in its child for forked runs, in-process
   for serial ones):

     kill:<id>        the hosting process SIGKILLs itself
     exit:<id>[:n]    the hosting process _exits with status n (default 3)
     raise:<id>       the experiment raises (becomes a clean [Failed])
     hang:<id>        the experiment blocks forever (until a timeout)

   The supervisor disarms the faults of an experiment before retrying
   it (children forked afterwards inherit the cleaned environment), so
   an injected crash exercises exactly one supervision round and the
   retry then succeeds — which is what makes the recovery paths testable
   deterministically. *)

let fault_env = "MMU_SIM_FAULT"

module Fault = struct
  type kind = Kill | Exit of int | Raise | Hang

  let lower = String.lowercase_ascii

  let parse spec =
    String.split_on_char ',' spec
    |> List.filter_map (fun entry ->
           match String.split_on_char ':' (String.trim entry) with
           | [ "kill"; id ] -> Some (lower id, Kill)
           | [ "exit"; id ] -> Some (lower id, Exit 3)
           | [ "exit"; id; n ] ->
               Some (lower id, Exit (Option.value ~default:3 (int_of_string_opt n)))
           | [ "raise"; id ] -> Some (lower id, Raise)
           | [ "hang"; id ] -> Some (lower id, Hang)
           | _ -> None)

  let active () =
    match Sys.getenv_opt fault_env with
    | None | Some "" -> []
    | Some spec -> parse spec

  (* Run in the process hosting experiment [id], just before it starts. *)
  let fire id =
    match List.assoc_opt (lower id) (active ()) with
    | None -> ()
    | Some Kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | Some (Exit n) -> Unix._exit n
    | Some Raise -> failwith ("injected fault for " ^ id)
    | Some Hang ->
        while true do
          (* interruptible: SIGALRM (the in-process timeout) aborts it *)
          try ignore (Unix.select [] [] [] 3600.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done

  (* Drop every fault aimed at [id] from the environment, so children
     forked from now on (and in-process retries) run it clean. *)
  let disarm id =
    match Sys.getenv_opt fault_env with
    | None | Some "" -> ()
    | Some spec ->
        let keep =
          String.split_on_char ',' spec
          |> List.filter (fun entry ->
                 match String.split_on_char ':' (String.trim entry) with
                 | _ :: target :: _ -> lower target <> lower id
                 | _ -> false)
        in
        Unix.putenv fault_env (String.concat "," keep)
end

(* ------------------------------------------------- payload collection *)

(* Per-experiment observability payloads are produced in whatever
   process hosts the experiment — its forked child or the parent — by
   this hook, called right after each attempt with the experiment's id.
   The payload is marshalled over the same pipe as the result, which is
   what lets every instrument keep [--jobs N]: the data is drained where
   it was recorded instead of being stranded in a child.  The hook must
   be installed before [fork] (children inherit it) and should also
   drain the kernel registry so payloads cannot leak across
   experiments. *)
let collect_hook : (string -> Json.t option) ref = ref (fun _ -> None)

let collect id = try !collect_hook id with _ -> None

let armed ?(collect = fun _ _ -> None) boot f =
  let saved = !collect_hook in
  Kernel.set_smp_register true;
  (collect_hook := fun id -> collect id (Kernel.drain_smp_registered ()));
  Fun.protect
    ~finally:(fun () ->
      Kernel.set_smp_register false;
      ignore (Kernel.drain_smp_registered () : Kernel.t list);
      collect_hook := saved)
    (fun () -> Ppc.Boot.with_config boot f)

(* ------------------------------------------------------------ attempts *)

let attempt ~seed id f =
  match
    Fault.fire id;
    f ?seed:(Some seed) ()
  with
  | t -> Done t
  | exception e -> Failed (Printexc.to_string e)

exception Attempt_timeout

(* In-process attempt under a wall-clock deadline: SIGALRM raises out of
   the experiment at the next safe point.  Simulation code allocates
   constantly, so delivery is prompt; a blocking syscall (the hang
   fault) is interrupted and the handler's exception propagates. *)
let attempt_timed ~timeout ~seed id f =
  if timeout <= 0.0 then attempt ~seed id f
  else begin
    let prev =
      Sys.signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> raise Attempt_timeout))
    in
    let arm v =
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = v; it_interval = 0.0 })
    in
    arm timeout;
    let o =
      match
        Fault.fire id;
        f ?seed:(Some seed) ()
      with
      | t -> Done t
      | exception Attempt_timeout -> Timed_out timeout
      | exception e -> Failed (Printexc.to_string e)
    in
    arm 0.0;
    Sys.set_signal Sys.sigalrm prev;
    o
  end

(* The one place job-count bounds live: at least one child alive, and no
   more than [max_jobs] — forking beyond that wins nothing for a suite of
   a few dozen experiments and risks fd exhaustion on big machines. *)
let min_jobs = 1
let max_jobs = 16
let clamp_jobs n = max min_jobs (min n max_jobs)

(* First line of [cmd]'s output parsed as a positive int, if any. *)
let probe_int cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception _ -> None
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, int_of_string_opt (String.trim line)) with
      | _, Some n when n >= 1 -> Some n
      | _ -> None)

let default_jobs () =
  (* getconf is POSIX but absent from some minimal images; nproc is the
     coreutils equivalent.  Either failing leaves us serial. *)
  match probe_int "getconf _NPROCESSORS_ONLN" with
  | Some n -> clamp_jobs n
  | None -> (
      match probe_int "nproc" with
      | Some n -> clamp_jobs n
      | None -> min_jobs)

(* --------------------------------------------------------- supervision *)

type job = string * (?seed:int -> unit -> Experiments.table)

(* Parent-side view of one forked child, which runs exactly one
   experiment. *)
type child = {
  c_pid : int;
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;  (* the frame, as read so far *)
  c_deadline : float;  (* fork time + timeout; infinity = no timeout *)
  c_index : int;  (* position in the input *)
  c_tries : int;  (* retries already spent on this experiment *)
  c_job : job;
  mutable c_eof : bool;
  mutable c_timed_out : bool;
}

(* Fork one child for one attempt: it marshals exactly one
   (outcome, payload) frame down its pipe and exits, so a finished
   experiment survives anything that happens to the child afterwards. *)
let spawn ~seed ~timeout (i, tries, ((id, f) as job)) =
  flush stdout;
  flush stderr;
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rfd;
      let oc = Unix.out_channel_of_descr wfd in
      (try
         let o = attempt ~seed id f in
         let p = collect id in
         Marshal.to_channel oc (o, p) [];
         close_out oc
       with _ -> ());
      (* _exit: skip at_exit (inherited buffers, test reporters) *)
      Unix._exit 0
  | pid ->
      Unix.close wfd;
      {
        c_pid = pid;
        c_fd = rfd;
        c_buf = Buffer.create 256;
        c_deadline =
          (if timeout > 0.0 then Unix.gettimeofday () +. timeout else infinity);
        c_index = i;
        c_tries = tries;
        c_job = job;
        c_eof = false;
        c_timed_out = false;
      }

let kill_quietly pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Why a child that delivered no complete frame lost its experiment. *)
let cause ~timeout c status =
  if c.c_timed_out then Timed_out timeout
  else
    match status with
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Crashed (Signaled s)
    | Unix.WEXITED 0 -> Failed "worker exited before delivering a result"
    | Unix.WEXITED n -> Crashed (Exited n)

(* Run [selected] in forked children, one per experiment and at most
   [jobs] alive, starting the next queued experiment whenever a child
   is reaped.  A lost experiment is disarmed and requeued until its
   last retry, which runs serially in this process under SIGALRM once
   the pool has drained, so a systematically crashing experiment
   cannot take a healthy one down with it. *)
let pool ~jobs ~timeout ~retries ~seed selected =
  let results = Array.make (List.length selected) None in
  let queue = Queue.create () in
  List.iteri (fun i job -> Queue.add (i, 0, job) queue) selected;
  let record c (o, p) =
    results.(c.c_index) <-
      Some (fst c.c_job, (if c.c_tries = 0 then o else Retried (c.c_tries, o)), p)
  in
  let reap c =
    Unix.close c.c_fd;
    let status = waitpid_retry c.c_pid in
    match
      (Marshal.from_string (Buffer.contents c.c_buf) 0
        : outcome * Json.t option)
    with
    | frame -> record c frame
    | exception (Failure _ | Invalid_argument _) ->
        if c.c_tries >= retries then record c (cause ~timeout c status, None)
        else begin
          (* requeued, or on its last retry left unrecorded for the
             parent to run below *)
          Fault.disarm (fst c.c_job);
          if c.c_tries + 1 < retries then
            Queue.add (c.c_index, c.c_tries + 1, c.c_job) queue
        end
  in
  let running = ref [] in
  let chunk = Bytes.create 65536 in
  while !running <> [] || not (Queue.is_empty queue) do
    while List.length !running < jobs && not (Queue.is_empty queue) do
      running := spawn ~seed ~timeout (Queue.pop queue) :: !running
    done;
    let now = Unix.gettimeofday () in
    let wait =
      List.fold_left (fun acc c -> Float.min acc (c.c_deadline -. now))
        infinity !running
    in
    let readable, _, _ =
      try
        Unix.select
          (List.map (fun c -> c.c_fd) !running)
          [] []
          (if wait = infinity then -1.0 else Float.max 0.0 wait)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        if List.mem c.c_fd readable then begin
          match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
          | 0 -> c.c_eof <- true
          | n -> Buffer.add_subbytes c.c_buf chunk 0 n
          | exception Unix.Unix_error _ -> c.c_eof <- true
        end;
        if (not c.c_eof) && now >= c.c_deadline then begin
          kill_quietly c.c_pid;
          c.c_timed_out <- true
        end)
      !running;
    let over, live =
      List.partition (fun c -> c.c_eof || c.c_timed_out) !running
    in
    running := live;
    List.iter reap over
  done;
  List.mapi
    (fun i (id, f) ->
      match results.(i) with
      | Some r -> r
      | None ->
          (* lost on its last forked try: the final retry runs here *)
          let o = attempt_timed ~timeout ~seed id f in
          let p = collect id in
          (id, Retried (retries, o), p))
    selected

(* ---------------------------------------------------------------- run *)

let default_retries = 2

let run_serial ~timeout ~retries ~seed selected =
  List.map
    (fun (id, f) ->
      let rec go n =
        let o = attempt_timed ~timeout ~seed id f in
        (* collect after every attempt so a retry's payload reflects
           only the final run, not leftovers from the aborted one *)
        let p = collect id in
        match o with
        | Done _ | Failed _ | Crashed _ | Retried _ ->
            ((if n = 0 then o else Retried (n, o)), p)
        | Timed_out _ ->
            if n >= retries then ((if n = 0 then o else Retried (n, o)), p)
            else begin
              Fault.disarm id;
              go (n + 1)
            end
      in
      let o, p = go 0 in
      (id, o, p))
    selected

let run_collect ?(jobs = 1) ?(seed = 42) ?(timeout = 0.0)
    ?(retries = default_retries) selected =
  let retries = max 0 retries in
  let jobs = max min_jobs (min (clamp_jobs jobs) (List.length selected)) in
  if jobs <= 1 then run_serial ~timeout ~retries ~seed selected
  else pool ~jobs ~timeout ~retries ~seed selected

let run ?jobs ?seed ?timeout ?retries selected =
  List.map
    (fun (id, o, _payload) -> (id, o))
    (run_collect ?jobs ?seed ?timeout ?retries selected)
