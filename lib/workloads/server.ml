open Ppc
module Kernel = Kernel_sim.Kernel
module Mm = Kernel_sim.Mm
module Vfs = Kernel_sim.Vfs
module Task = Kernel_sim.Task

type model = Fork_exec | Pool | Shared_mm

let model_name = function
  | Fork_exec -> "fork_exec"
  | Pool -> "pool"
  | Shared_mm -> "shared_mm"

type kind = Compute | Mmap_churn | Pipe_echo | File_read

let kind_name = function
  | Compute -> "compute"
  | Mmap_churn -> "mmap"
  | Pipe_echo -> "pipe"
  | File_read -> "file"

let kinds = [| Compute; Mmap_churn; Pipe_echo; File_read |]

let kind_index = function
  | Compute -> 0
  | Mmap_churn -> 1
  | Pipe_echo -> 2
  | File_read -> 3

let class_names model =
  Array.map (fun kd -> model_name model ^ "/" ^ kind_name kd) kinds

type params = {
  model : model;
  requests : int;
  interarrival : int;
  jitter : int;
  pool_workers : int;
  worker_requests : int;
  mix : int array;
}

let default_params =
  { model = Pool;
    requests = 200;
    interarrival = 120_000;
    jitter = 60_000;
    pool_workers = 4;
    worker_requests = 32;
    mix = [| 5; 2; 2; 1 |] }

(* The request count for callers that cannot reach the params record
   (the experiment registry builds its own): the boot configuration's
   --requests, else the historical 200, which keeps the committed
   baselines byte-identical. *)
let boot_requests () =
  Option.value (Boot.current ()).Boot.requests ~default:default_params.requests

type result = {
  perf : Perf.t;
  wall_us : float;
  busy_us : float;
  requests : int;
  hist : Hist.t;
  kind_hists : (string * Hist.t) list;
}

let data_of ~text_pages = Mm.user_text_base + (text_pages lsl Addr.page_shift)

(* dispatcher and worker images; workers are re-exec'd so their address
   spaces churn (the VSID-recycling pressure this workload exists to
   apply) *)
let disp_text = 16
let disp_data = 32
let worker_text = 12
let worker_data = 24

let docroot_pages = 64

let pick_kind rng mix =
  let total = Array.fold_left ( + ) 0 mix in
  let r = Rng.int rng (max 1 total) in
  let n = Array.length kinds in
  let rec walk i acc =
    if i >= n - 1 then kinds.(n - 1)
    else
      let acc = acc + mix.(i) in
      if r < acc then kinds.(i) else walk (i + 1) acc
  in
  walk 0 0

(* The service body, executed in whatever task owns the request.
   [data_ea]/[data_pages] locate that task's data vma (worker image or,
   for shared-mm threads, the dispatcher's). *)
let serve k ~rng ~docroot ~pipe ~data_ea ~data_pages kind =
  match kind with
  | Compute ->
      Kernel.user_run k ~instrs:2_000;
      for _ = 1 to 16 do
        let page = Rng.int rng data_pages in
        Kernel.touch k
          (if Rng.int rng 3 = 0 then Mmu.Store else Mmu.Load)
          (data_ea + (page lsl Addr.page_shift))
      done
  | Mmap_churn ->
      Kernel.user_run k ~instrs:600;
      let buf = Kernel.sys_mmap k ~pages:24 ~writable:true in
      for i = 0 to 23 do
        Kernel.touch k Mmu.Store (buf + (i lsl Addr.page_shift))
      done;
      Kernel.sys_munmap k ~ea:buf ~pages:24
  | Pipe_echo ->
      Kernel.user_run k ~instrs:800;
      let _ = Kernel.sys_pipe_write k pipe ~buf:data_ea ~bytes:512 in
      let _ = Kernel.sys_pipe_read k pipe ~buf:data_ea ~bytes:512 in
      ()
  | File_read ->
      Kernel.user_run k ~instrs:700;
      let buf = Kernel.sys_mmap k ~pages:4 ~writable:true in
      Kernel.sys_file_read k docroot
        ~from_page:(Rng.int rng (docroot_pages - 4))
        ~pages:4 ~buf;
      Kernel.sys_munmap k ~ea:buf ~pages:4

let run k ~params:p =
  let rng = Kernel.rng k in
  let sp = Kernel.span k in
  if Span.enabled sp then Span.set_classes sp (class_names p.model);
  let disp =
    Kernel.spawn k ~text_pages:disp_text ~data_pages:disp_data
      ~stack_pages:4 ()
  in
  let docroot =
    Vfs.create_file (Kernel.vfs k) ~name:"docroot" ~pages:docroot_pages
  in
  let pipe = Kernel.new_pipe k in
  Kernel.switch_to k disp;
  Kernel.user_run k ~instrs:2_000;
  let hist = Hist.create () in
  let kind_hists = Array.map (fun _ -> Hist.create ()) kinds in
  (* fork + exec a worker; the dispatcher must be current *)
  let fresh_worker () =
    let w = Kernel.sys_fork k in
    Kernel.switch_to k w;
    Kernel.sys_exec k ~text_pages:worker_text ~data_pages:worker_data
      ~stack_pages:2;
    Kernel.user_run k ~instrs:500;
    Kernel.switch_to k disp;
    w
  in
  let pool =
    match p.model with
    | Fork_exec -> [||]
    | Pool -> Array.init p.pool_workers (fun _ -> fresh_worker ())
    | Shared_mm ->
        Array.init p.pool_workers (fun _ -> Kernel.spawn_thread k ~peer:disp)
  in
  let served = Array.make (max 1 (Array.length pool)) 0 in
  let worker_data_ea = data_of ~text_pages:worker_text in
  let disp_data_ea = data_of ~text_pages:disp_text in
  let next_arrival = ref (Kernel.cycles k + p.interarrival) in
  for n = 0 to p.requests - 1 do
    let arrival = !next_arrival in
    next_arrival := arrival + p.interarrival + Rng.int rng (max 1 p.jitter);
    let now = Kernel.cycles k in
    (* ahead of the offered load: the machine idles until the request
       arrives.  Behind it: the request queued, and that delay is part
       of its latency (latency = completion - arrival). *)
    if now < arrival then Kernel.idle_for k ~cycles:(arrival - now);
    let kind = pick_kind rng p.mix in
    let ki = kind_index kind in
    let rid = Span.request_begin sp ~cls:ki ~arrival in
    Span.set_current_request sp rid;
    Span.bind_pid sp ~pid:disp.Task.pid ~rid;
    Kernel.user_run k ~instrs:400;
    let recycle = ref (-1) in
    (match p.model with
    | Fork_exec ->
        let child = Kernel.sys_fork k in
        Span.bind_pid sp ~pid:child.Task.pid ~rid;
        Kernel.switch_to k child;
        Kernel.sys_exec k ~text_pages:worker_text ~data_pages:worker_data
          ~stack_pages:2;
        serve k ~rng ~docroot ~pipe ~data_ea:worker_data_ea
          ~data_pages:worker_data kind;
        Kernel.sys_exit k;
        Kernel.switch_to k disp;
        Span.bind_pid sp ~pid:child.Task.pid ~rid:(-1)
    | Pool ->
        let wi = n mod Array.length pool in
        let w = pool.(wi) in
        Span.bind_pid sp ~pid:w.Task.pid ~rid;
        Kernel.switch_to k w;
        serve k ~rng ~docroot ~pipe ~data_ea:worker_data_ea
          ~data_pages:worker_data kind;
        Kernel.switch_to k disp;
        Span.bind_pid sp ~pid:w.Task.pid ~rid:(-1);
        served.(wi) <- served.(wi) + 1;
        if p.worker_requests > 0 && served.(wi) >= p.worker_requests then
          recycle := wi
    | Shared_mm ->
        let wi = n mod Array.length pool in
        let w = pool.(wi) in
        Span.bind_pid sp ~pid:w.Task.pid ~rid;
        Kernel.switch_to k w;
        serve k ~rng ~docroot ~pipe ~data_ea:disp_data_ea
          ~data_pages:disp_data kind;
        Kernel.switch_to k disp;
        Span.bind_pid sp ~pid:w.Task.pid ~rid:(-1));
    Span.request_end sp rid;
    Span.bind_pid sp ~pid:disp.Task.pid ~rid:(-1);
    let lat = Kernel.cycles k - arrival in
    Hist.observe hist lat;
    Hist.observe kind_hists.(ki) lat;
    (* pool maintenance between requests (Apache's MaxRequestsPerChild):
       retire the worker and fork+exec a replacement, churning one more
       address space.  Charged to no request - it happens off-path. *)
    if !recycle >= 0 then begin
      let wi = !recycle in
      Kernel.switch_to k pool.(wi);
      Kernel.sys_exit k;
      Kernel.switch_to k disp;
      pool.(wi) <- fresh_worker ();
      served.(wi) <- 0
    end
  done;
  (* teardown: pool workers exit; shared-mm threads must not (they
     share the dispatcher's mm), so that cast stays parked *)
  (match p.model with
  | Pool ->
      Array.iter
        (fun w ->
          Kernel.switch_to k w;
          Kernel.sys_exit k)
        pool;
      Kernel.switch_to k disp;
      Kernel.sys_exit k
  | Fork_exec ->
      Kernel.switch_to k disp;
      Kernel.sys_exit k
  | Shared_mm -> ());
  let named =
    Array.to_list
      (Array.mapi (fun i h -> (kind_name kinds.(i), h)) kind_hists)
  in
  (hist, named)

let measure ~machine ~policy ?(params = default_params) ?(seed = 42) ?label
    () =
  let k = Kernel.boot ~machine ~policy ~seed () in
  let sp = Kernel.span k in
  if Span.enabled sp then
    Span.set_label sp
      (match label with Some l -> l | None -> model_name params.model);
  let rcd = Kernel.recorder k in
  if Recorder.enabled rcd then
    Recorder.set_label rcd
      (match label with Some l -> l | None -> model_name params.model);
  let (hist, kind_hists), perf = Measure.region k (fun () -> run k ~params) in
  let mhz = machine.Machine.mhz in
  { perf;
    wall_us = Cost.us_of_cycles ~mhz perf.Perf.cycles;
    busy_us = Cost.us_of_cycles ~mhz (Perf.busy_cycles perf);
    requests = params.requests;
    hist;
    kind_hists }
