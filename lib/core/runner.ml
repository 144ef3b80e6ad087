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
   experiment is about to run (in the worker for forked runs, in-process
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

  (* Drop every fault aimed at [id] from the environment, so workers
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
   process hosts the experiment — a forked worker or the parent — by
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

(* The one place job-count bounds live: at least one worker, and no more
   than [max_jobs] — forking beyond that wins nothing for a suite of a
   few dozen experiments and risks fd exhaustion on big machines. *)
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

(* Parent-side view of one forked worker. *)
type worker = {
  w_pid : int;
  w_fd : Unix.file_descr;
  w_slice : (int * job) list;  (* dealt experiments, in delivery order *)
  w_buf : Buffer.t;  (* bytes read but not yet framed *)
  mutable w_deadline : float;  (* absolute; infinity = no timeout *)
  mutable w_eof : bool;
  mutable w_timed_out : bool;
  mutable w_err : string option;  (* marshal decode error, if any *)
}

(* One pipe per worker; workers marshal each (index, id, outcome) as it
   completes and flush, so every finished experiment survives a later
   crash of its worker.  Results are small (a table of strings), so a
   worker never fills the pipe buffer faster than the parent drains. *)
let spawn ~seed ~timeout slice =
  flush stdout;
  flush stderr;
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rfd;
      let oc = Unix.out_channel_of_descr wfd in
      List.iter
        (fun (i, (id, f)) ->
          let r = attempt ~seed id f in
          let p = collect id in
          Marshal.to_channel oc (i, id, r, p) [];
          flush oc)
        slice;
      close_out oc;
      (* _exit: skip at_exit (inherited buffers, test reporters) *)
      Unix._exit 0
  | pid ->
      Unix.close wfd;
      {
        w_pid = pid;
        w_fd = rfd;
        w_slice = slice;
        w_buf = Buffer.create 256;
        w_deadline =
          (if timeout > 0.0 then Unix.gettimeofday () +. timeout else infinity);
        w_eof = false;
        w_timed_out = false;
        w_err = None;
      }

(* Extract complete marshal frames from [w]'s buffer.  A header or
   payload that fails to decode is transport corruption, not a result:
   record it and stop consuming — the supervisor kills the worker and
   requeues whatever it never delivered. *)
let drain_frames w ~on_frame =
  let data = Buffer.contents w.w_buf in
  let len = String.length data in
  let b = Bytes.unsafe_of_string data in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    if w.w_err <> None || len - !pos < Marshal.header_size then stop := true
    else
      match Marshal.total_size b !pos with
      | exception Failure msg -> w.w_err <- Some msg
      | total when len - !pos < total -> stop := true
      | total -> (
          match
            (Marshal.from_bytes b !pos : int * string * outcome * Json.t option)
          with
          | exception Failure msg -> w.w_err <- Some msg
          | frame ->
              on_frame frame;
              pos := !pos + total)
  done;
  Buffer.clear w.w_buf;
  if w.w_err = None && !pos < len then
    Buffer.add_substring w.w_buf data !pos (len - !pos)

let kill_quietly pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Run [indexed] across [jobs] forked workers, supervising the pipes
   with select.  Returns the delivered results plus, for every
   experiment a worker failed to deliver, the (index, job, provisional
   outcome) triple the caller may retry. *)
let forked_round ~jobs ~timeout ~seed indexed =
  let workers =
    List.init jobs (fun w ->
        spawn ~seed ~timeout
          (List.filteri (fun k _ -> k mod jobs = w) indexed))
  in
  let delivered : (int, string * outcome * Json.t option) Hashtbl.t =
    Hashtbl.create 37
  in
  let active = ref (List.filter (fun w -> w.w_slice <> []) workers) in
  (* workers dealt an empty slice just exit; reap them at the end *)
  let finished = ref [] in
  let chunk = Bytes.create 65536 in
  while !active <> [] do
    let now = Unix.gettimeofday () in
    let tmo =
      if timeout <= 0.0 then -1.0
      else
        List.fold_left
          (fun acc w -> Float.min acc (Float.max 0.0 (w.w_deadline -. now)))
          60.0 !active
    in
    let readable, _, _ =
      try Unix.select (List.map (fun w -> w.w_fd) !active) [] [] tmo
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun w ->
        if List.mem w.w_fd readable then
          match Unix.read w.w_fd chunk 0 (Bytes.length chunk) with
          | 0 -> w.w_eof <- true
          | n ->
              Buffer.add_subbytes w.w_buf chunk 0 n;
              drain_frames w ~on_frame:(fun (i, id, r, p) ->
                  Hashtbl.replace delivered i (id, r, p);
                  if timeout > 0.0 then
                    w.w_deadline <- Unix.gettimeofday () +. timeout);
              if w.w_err <> None then begin
                (* corrupt stream: the worker can no longer be trusted *)
                kill_quietly w.w_pid;
                w.w_eof <- true
              end
          | exception Unix.Unix_error _ -> w.w_eof <- true)
      !active;
    (* deadline enforcement: a worker that has gone [timeout] without
       delivering is hung on its current experiment — kill it and let
       the retry ladder deal with the slice *)
    let now = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if
          (not w.w_eof)
          && now >= w.w_deadline
          && List.exists
               (fun (i, _) -> not (Hashtbl.mem delivered i))
               w.w_slice
        then begin
          kill_quietly w.w_pid;
          w.w_timed_out <- true;
          w.w_eof <- true
        end)
      !active;
    let eof, still = List.partition (fun w -> w.w_eof) !active in
    finished := eof @ !finished;
    active := still
  done;
  let lost =
    List.concat_map
      (fun w ->
        Unix.close w.w_fd;
        let status = waitpid_retry w.w_pid in
        let undelivered =
          List.filter (fun (i, _) -> not (Hashtbl.mem delivered i)) w.w_slice
        in
        match undelivered with
        | [] -> []
        | first :: rest ->
            let head_cause, tail_cause =
              match (w.w_err, w.w_timed_out, status) with
              | Some msg, _, _ ->
                  let c = Failed ("worker result stream corrupt: " ^ msg) in
                  (c, c)
              | None, true, _ ->
                  (* the first undelivered experiment is the hung one;
                     the rest were collateral of the kill *)
                  (Timed_out timeout, Crashed (Signaled Sys.sigkill))
              | None, false, Unix.WSIGNALED s | None, false, Unix.WSTOPPED s
                ->
                  let c = Crashed (Signaled s) in
                  (c, c)
              | None, false, Unix.WEXITED 0 ->
                  let c = Failed "worker exited before delivering a result" in
                  (c, c)
              | None, false, Unix.WEXITED n ->
                  let c = Crashed (Exited n) in
                  (c, c)
            in
            (fst first, snd first, head_cause)
            :: List.map (fun (i, job) -> (i, job, tail_cause)) rest)
      !finished
  in
  (* reap the empty-slice workers too *)
  List.iter
    (fun w ->
      if w.w_slice = [] then begin
        Unix.close w.w_fd;
        ignore (waitpid_retry w.w_pid)
      end)
    workers;
  (Hashtbl.fold (fun i r acc -> (i, r) :: acc) delivered [], lost)

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
  else begin
    let indexed = List.mapi (fun i x -> (i, x)) selected in
    let results : (int, string * outcome * Json.t option) Hashtbl.t =
      Hashtbl.create 37
    in
    let record ~round (i, (id, o, p)) =
      Hashtbl.replace results i
        (id, (if round = 0 then o else Retried (round, o)), p)
    in
    let delivered, lost = forked_round ~jobs ~timeout ~seed indexed in
    List.iter (record ~round:0) delivered;
    (* The retry ladder: each lost experiment is first re-forked (fresh
       workers over just the orphaned slice), and on the final attempt
       run serially in-parent so a systematically crashing worker
       cannot take healthy siblings down with it again. *)
    let rec retry attempt lost =
      match lost with
      | [] -> ()
      | lost when attempt > retries ->
          List.iter
            (fun (i, (id, _), cause) ->
              Hashtbl.replace results i
                ( id,
                  (if retries = 0 then cause else Retried (retries, cause)),
                  None ))
            lost
      | lost ->
          List.iter (fun (_, (id, _), _) -> Fault.disarm id) lost;
          let pairs = List.map (fun (i, p, _) -> (i, p)) lost in
          if attempt < retries then begin
            let jobs' = min jobs (List.length pairs) in
            let delivered, lost' =
              forked_round ~jobs:jobs' ~timeout ~seed pairs
            in
            List.iter (record ~round:attempt) delivered;
            retry (attempt + 1) lost'
          end
          else
            (* last resort: serially, in this process, under SIGALRM *)
            List.iter
              (fun (i, (id, f)) ->
                let o = attempt_timed ~timeout ~seed id f in
                let p = collect id in
                record ~round:attempt (i, (id, o, p)))
              pairs
    in
    retry 1 lost;
    List.map
      (fun (i, (id, _)) ->
        match Hashtbl.find_opt results i with
        | Some r -> r
        | None -> (id, Failed "worker exited before delivering a result", None))
      indexed
  end

let run ?jobs ?seed ?timeout ?retries selected =
  List.map
    (fun (id, o, _payload) -> (id, o))
    (run_collect ?jobs ?seed ?timeout ?retries selected)
