(* Request-level spans: per-request lifecycles and critical-path cost.

   Where Trace records a stream of events and Profile maintains running
   attributions, this layer follows individual *requests* through a
   server-shaped workload: arrival, the syscalls they issue, the run
   slices they consume, and every TLB-miss reload / htab miss / context
   switch serviced on their behalf — yielding a per-request cost
   breakdown plus per-class and overall latency histograms.

   Everything here is observation only: recording never costs cycles,
   touches the caches, or draws from an RNG, so a span-recorded run and
   a bare run of the same seed produce byte-identical Perf counts.  The
   disabled path is one flag check per instrumented site and allocates
   nothing; request storage is preallocated in growable parallel int
   arrays (SoA, like the Trace ring). *)

type t = {
  perf : Perf.t;  (* cycle source for stamps; never written *)
  mutable enabled : bool;
  mutable label : string;  (* which configuration this recorder watched *)
  (* per-request storage: parallel arrays indexed by request id *)
  mutable n : int;  (* requests ever begun *)
  mutable r_cls : int array;
  mutable r_arrival : int array;
  mutable r_finish : int array;  (* -1 while in flight *)
  mutable r_syscalls : int array;
  mutable r_syscall_cost : int array;
  mutable r_reloads : int array;
  mutable r_reload_cost : int array;
  mutable r_htab_misses : int array;
  mutable r_htab_cost : int array;
  mutable r_ctxsw : int array;
  mutable r_ctxsw_cost : int array;
  mutable r_run_cost : int array;
  (* request classes (service model x request kind), set by the workload *)
  mutable class_names : string array;
  mutable class_hists : Hist.t array;
  hist_latency : Hist.t;  (* completion latency across all classes *)
  (* live bindings *)
  mutable cur_req : int;  (* request the running code serves; -1 = none *)
  mutable pid_req : int array;  (* pid -> request id + 1 (0 = unbound) *)
  mutable sys_depth : int;
  mutable sys_start : int;
  mutable completed : int;
}

let initial_requests = 1024

let create ~perf =
  { perf;
    enabled = false;
    label = "";
    n = 0;
    r_cls = [||];
    r_arrival = [||];
    r_finish = [||];
    r_syscalls = [||];
    r_syscall_cost = [||];
    r_reloads = [||];
    r_reload_cost = [||];
    r_htab_misses = [||];
    r_htab_cost = [||];
    r_ctxsw = [||];
    r_ctxsw_cost = [||];
    r_run_cost = [||];
    class_names = [||];
    class_hists = [||];
    hist_latency = Hist.create ();
    cur_req = -1;
    pid_req = [||];
    sys_depth = 0;
    sys_start = 0;
    completed = 0 }

(* --- lifecycle -------------------------------------------------------- *)

let enable t =
  let requests = initial_requests in
  t.r_cls <- Array.make requests 0;
  t.r_arrival <- Array.make requests 0;
  t.r_finish <- Array.make requests (-1);
  t.r_syscalls <- Array.make requests 0;
  t.r_syscall_cost <- Array.make requests 0;
  t.r_reloads <- Array.make requests 0;
  t.r_reload_cost <- Array.make requests 0;
  t.r_htab_misses <- Array.make requests 0;
  t.r_htab_cost <- Array.make requests 0;
  t.r_ctxsw <- Array.make requests 0;
  t.r_ctxsw_cost <- Array.make requests 0;
  t.r_run_cost <- Array.make requests 0;
  t.pid_req <- Array.make 64 0;
  t.n <- 0;
  t.completed <- 0;
  t.cur_req <- -1;
  t.enabled <- true

let enabled t = t.enabled

let set_label t label = t.label <- label
let label t = t.label

(* --- request classes -------------------------------------------------- *)

let set_classes t names =
  t.class_names <- Array.copy names;
  t.class_hists <- Array.init (Array.length names) (fun _ -> Hist.create ())

let class_names t = t.class_names

let class_hist t cls =
  if cls >= 0 && cls < Array.length t.class_hists then
    Some t.class_hists.(cls)
  else None

(* --- storage growth --------------------------------------------------- *)

let grow a fill =
  let n = Array.length a in
  let b = Array.make (max 16 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

let ensure_request_room t =
  if t.n >= Array.length t.r_cls then begin
    t.r_cls <- grow t.r_cls 0;
    t.r_arrival <- grow t.r_arrival 0;
    t.r_finish <- grow t.r_finish (-1);
    t.r_syscalls <- grow t.r_syscalls 0;
    t.r_syscall_cost <- grow t.r_syscall_cost 0;
    t.r_reloads <- grow t.r_reloads 0;
    t.r_reload_cost <- grow t.r_reload_cost 0;
    t.r_htab_misses <- grow t.r_htab_misses 0;
    t.r_htab_cost <- grow t.r_htab_cost 0;
    t.r_ctxsw <- grow t.r_ctxsw 0;
    t.r_ctxsw_cost <- grow t.r_ctxsw_cost 0;
    t.r_run_cost <- grow t.r_run_cost 0
  end

(* --- request lifecycle (workload-driven) ------------------------------ *)

let request_begin t ~cls ~arrival =
  if not t.enabled then -1
  else begin
    ensure_request_room t;
    let rid = t.n in
    t.n <- rid + 1;
    t.r_cls.(rid) <- cls;
    t.r_arrival.(rid) <- arrival;
    t.r_finish.(rid) <- -1;
    rid
  end

let request_end t rid =
  if t.enabled && rid >= 0 && rid < t.n && t.r_finish.(rid) < 0 then begin
    let now = t.perf.Perf.cycles in
    t.r_finish.(rid) <- now;
    t.completed <- t.completed + 1;
    let latency = now - t.r_arrival.(rid) in
    Hist.observe t.hist_latency latency;
    (match class_hist t t.r_cls.(rid) with
    | Some h -> Hist.observe h latency
    | None -> ());
    if t.cur_req = rid then t.cur_req <- -1
  end

let bind_pid t ~pid ~rid =
  if t.enabled && pid >= 0 then begin
    if pid >= Array.length t.pid_req then t.pid_req <- grow t.pid_req 0;
    t.pid_req.(pid) <- rid + 1
  end

let set_current_request t rid = if t.enabled then t.cur_req <- rid
let current_request t = t.cur_req

(* --- attribution hooks (kernel/MMU-driven; guarded on [enabled]) ------ *)

let note_context_switch t ~pid ~cost =
  if t.enabled then begin
    let rid =
      if pid >= 0 && pid < Array.length t.pid_req then t.pid_req.(pid) - 1
      else -1
    in
    t.cur_req <- rid;
    if rid >= 0 && rid < t.n then begin
      t.r_ctxsw.(rid) <- t.r_ctxsw.(rid) + 1;
      t.r_ctxsw_cost.(rid) <- t.r_ctxsw_cost.(rid) + cost
    end
  end

let syscall_begin t =
  if t.enabled && t.cur_req >= 0 then begin
    t.sys_depth <- t.sys_depth + 1;
    if t.sys_depth = 1 then begin
      t.sys_start <- t.perf.Perf.cycles;
      let rid = t.cur_req in
      t.r_syscalls.(rid) <- t.r_syscalls.(rid) + 1
    end
  end

let syscall_end t =
  if t.enabled && t.cur_req >= 0 && t.sys_depth > 0 then begin
    t.sys_depth <- t.sys_depth - 1;
    if t.sys_depth = 0 then begin
      let rid = t.cur_req in
      t.r_syscall_cost.(rid) <-
        t.r_syscall_cost.(rid) + (t.perf.Perf.cycles - t.sys_start)
    end
  end

let charge_reload t ~cost ~htab_missed =
  if t.enabled && t.cur_req >= 0 then begin
    let rid = t.cur_req in
    t.r_reloads.(rid) <- t.r_reloads.(rid) + 1;
    t.r_reload_cost.(rid) <- t.r_reload_cost.(rid) + cost;
    if htab_missed then begin
      t.r_htab_misses.(rid) <- t.r_htab_misses.(rid) + 1;
      t.r_htab_cost.(rid) <- t.r_htab_cost.(rid) + cost
    end
  end

let note_run t ~cost =
  if t.enabled && t.cur_req >= 0 then
    t.r_run_cost.(t.cur_req) <- t.r_run_cost.(t.cur_req) + cost

(* --- inspection ------------------------------------------------------- *)

type request = {
  q_rid : int;
  q_cls : int;
  q_arrival : int;
  q_finish : int;  (* -1 while in flight *)
  q_latency : int;  (* finish - arrival; -1 while in flight *)
  q_syscalls : int;
  q_syscall_cost : int;
  q_reloads : int;
  q_reload_cost : int;
  q_htab_misses : int;
  q_htab_cost : int;
  q_ctxsw : int;
  q_ctxsw_cost : int;
  q_run_cost : int;
}

let requests t = t.n
let completed t = t.completed
let hist_latency t = t.hist_latency

let request t rid =
  if rid < 0 || rid >= t.n then invalid_arg "Span.request: no such request";
  { q_rid = rid;
    q_cls = t.r_cls.(rid);
    q_arrival = t.r_arrival.(rid);
    q_finish = t.r_finish.(rid);
    q_latency =
      (if t.r_finish.(rid) < 0 then -1
       else t.r_finish.(rid) - t.r_arrival.(rid));
    q_syscalls = t.r_syscalls.(rid);
    q_syscall_cost = t.r_syscall_cost.(rid);
    q_reloads = t.r_reloads.(rid);
    q_reload_cost = t.r_reload_cost.(rid);
    q_htab_misses = t.r_htab_misses.(rid);
    q_htab_cost = t.r_htab_cost.(rid);
    q_ctxsw = t.r_ctxsw.(rid);
    q_ctxsw_cost = t.r_ctxsw_cost.(rid);
    q_run_cost = t.r_run_cost.(rid) }

let class_name t cls =
  if cls >= 0 && cls < Array.length t.class_names then t.class_names.(cls)
  else Printf.sprintf "class_%d" cls

let iter t f =
  for rid = 0 to t.n - 1 do
    f (request t rid)
  done

(* The [top] slowest completed requests, highest latency first; request
   id breaks ties so the order is deterministic. *)
let slowest t ~top =
  let out = ref [] in
  iter t (fun q -> if q.q_latency >= 0 then out := q :: !out);
  let sorted =
    List.sort
      (fun a b ->
        match compare b.q_latency a.q_latency with
        | 0 -> compare a.q_rid b.q_rid
        | c -> c)
      !out
  in
  List.filteri (fun i _ -> i < top) sorted

(* Component totals across every request, for whole-run breakdowns. *)
type totals = {
  t_syscalls : int;
  t_syscall_cost : int;
  t_reloads : int;
  t_reload_cost : int;
  t_htab_misses : int;
  t_htab_cost : int;
  t_ctxsw : int;
  t_ctxsw_cost : int;
  t_run_cost : int;
}

let totals t =
  let z =
    ref
      { t_syscalls = 0; t_syscall_cost = 0; t_reloads = 0; t_reload_cost = 0;
        t_htab_misses = 0; t_htab_cost = 0; t_ctxsw = 0; t_ctxsw_cost = 0;
        t_run_cost = 0 }
  in
  iter t (fun q ->
      let a = !z in
      z :=
        { t_syscalls = a.t_syscalls + q.q_syscalls;
          t_syscall_cost = a.t_syscall_cost + q.q_syscall_cost;
          t_reloads = a.t_reloads + q.q_reloads;
          t_reload_cost = a.t_reload_cost + q.q_reload_cost;
          t_htab_misses = a.t_htab_misses + q.q_htab_misses;
          t_htab_cost = a.t_htab_cost + q.q_htab_cost;
          t_ctxsw = a.t_ctxsw + q.q_ctxsw;
          t_ctxsw_cost = a.t_ctxsw_cost + q.q_ctxsw_cost;
          t_run_cost = a.t_run_cost + q.q_run_cost });
  !z
