(* The request ladder: E18's pool-model server loop re-driven from here,
   with a span around every public call it makes into the kernel.

   [run] issues exactly the calls [Workloads.Server.run] issues, in the
   same order with the same arguments (request-span bookkeeping aside,
   which is inert while the kernel's span recorder is disabled), so at
   the same seed it reproduces [Server.run]'s counters and latency
   histogram exactly; the benchmark checks that on every traced run and
   the self-test pins it.  What it adds is host time: one span per call,
   nested under a [server.request] span per request, recorded in flat
   arrays so that tracing itself allocates nothing. *)

open Ppc
module Kernel = Kernel_sim.Kernel
module Vfs = Kernel_sim.Vfs
module Server = Workloads.Server

let names =
  [| "server.request";
     "kernel.user_run";
     "kernel.touch";
     "kernel.switch_to";
     "kernel.sys_fork";
     "kernel.sys_exec";
     "kernel.sys_exit";
     "kernel.sys_mmap";
     "kernel.sys_munmap";
     "kernel.sys_pipe_write";
     "kernel.sys_pipe_read";
     "kernel.sys_file_read";
     "kernel.idle_for" |]

let request = 0
let user_run = 1
let touch = 2
let switch_to = 3
let fork = 4
let exec = 5
let exit_ = 6
let mmap = 7
let munmap = 8
let pipe_write = 9
let pipe_read = 10
let file_read = 11
let idle_for = 12

(* durations kept per span; percentiles come from the first this many *)
let max_durs = 1 lsl 20

type t = {
  calls : int array;
  self_ns : int array;
  words : float array;
  mutable durs : int array array;  (* per span: durations in ns *)
  (* the open-span stack *)
  st_id : int array;
  st_t0 : int array;
  st_w0 : float array;
  st_child : int array;
  mutable depth : int;
}

let create () =
  let n = Array.length names in
  { calls = Array.make n 0;
    self_ns = Array.make n 0;
    words = Array.make n 0.;
    durs = Array.init n (fun _ -> Array.make 4096 0);
    st_id = Array.make 8 0;
    st_t0 = Array.make 8 0;
    st_w0 = Array.make 8 0.;
    st_child = Array.make 8 0;
    depth = 0 }

let enter t id =
  let d = t.depth in
  t.st_id.(d) <- id;
  t.st_child.(d) <- 0;
  t.st_w0.(d) <- Gc.minor_words ();
  t.depth <- d + 1;
  t.st_t0.(d) <- Clock.now ()

let leave t =
  let now = Clock.now () in
  let w = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.st_id.(d) in
  let dur = now - t.st_t0.(d) in
  let c = t.calls.(id) in
  t.calls.(id) <- c + 1;
  t.self_ns.(id) <- t.self_ns.(id) + dur - t.st_child.(d);
  t.words.(id) <- t.words.(id) +. (w -. t.st_w0.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let a = t.durs.(id) in
  if c < Array.length a then a.(c) <- dur
  else if c < max_durs then begin
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 c;
    b.(c) <- dur;
    t.durs.(id) <- b
  end

(* ------------------------------------------------- the traced calls *)

let t_user_run t k ~instrs =
  enter t user_run;
  Kernel.user_run k ~instrs;
  leave t

let t_touch t k kind ea =
  enter t touch;
  Kernel.touch k kind ea;
  leave t

let t_switch_to t k task =
  enter t switch_to;
  Kernel.switch_to k task;
  leave t

let t_fork t k =
  enter t fork;
  let child = Kernel.sys_fork k in
  leave t;
  child

let t_exec t k ~text_pages ~data_pages ~stack_pages =
  enter t exec;
  Kernel.sys_exec k ~text_pages ~data_pages ~stack_pages;
  leave t

let t_exit t k =
  enter t exit_;
  Kernel.sys_exit k;
  leave t

let t_mmap t k ~pages ~writable =
  enter t mmap;
  let ea = Kernel.sys_mmap k ~pages ~writable in
  leave t;
  ea

let t_munmap t k ~ea ~pages =
  enter t munmap;
  Kernel.sys_munmap k ~ea ~pages;
  leave t

let t_pipe_write t k pipe ~buf ~bytes =
  enter t pipe_write;
  let n = Kernel.sys_pipe_write k pipe ~buf ~bytes in
  leave t;
  n

let t_pipe_read t k pipe ~buf ~bytes =
  enter t pipe_read;
  let n = Kernel.sys_pipe_read k pipe ~buf ~bytes in
  leave t;
  n

let t_file_read t k file ~from_page ~pages ~buf =
  enter t file_read;
  Kernel.sys_file_read k file ~from_page ~pages ~buf;
  leave t

let t_idle_for t k ~cycles =
  enter t idle_for;
  Kernel.idle_for k ~cycles;
  leave t

(* ------------------------------------------- the pool-model server *)

(* Server's image sizes and document root, as lib/workloads/server.ml
   fixes them. *)
let disp_text = 16
let disp_data = 32
let worker_text = 12
let worker_data = 24
let docroot_pages = 64

let data_of ~text_pages =
  Kernel_sim.Mm.user_text_base + (text_pages lsl Addr.page_shift)

let pick_kind rng mix =
  let kinds = Server.kinds in
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

let serve t k ~rng ~docroot ~pipe ~data_ea ~data_pages kind =
  match kind with
  | Server.Compute ->
      t_user_run t k ~instrs:2_000;
      for _ = 1 to 16 do
        let page = Rng.int rng data_pages in
        t_touch t k
          (if Rng.int rng 3 = 0 then Mmu.Store else Mmu.Load)
          (data_ea + (page lsl Addr.page_shift))
      done
  | Server.Mmap_churn ->
      t_user_run t k ~instrs:600;
      let buf = t_mmap t k ~pages:24 ~writable:true in
      for i = 0 to 23 do
        t_touch t k Mmu.Store (buf + (i lsl Addr.page_shift))
      done;
      t_munmap t k ~ea:buf ~pages:24
  | Server.Pipe_echo ->
      t_user_run t k ~instrs:800;
      let _ = t_pipe_write t k pipe ~buf:data_ea ~bytes:512 in
      let _ = t_pipe_read t k pipe ~buf:data_ea ~bytes:512 in
      ()
  | Server.File_read ->
      t_user_run t k ~instrs:700;
      let buf = t_mmap t k ~pages:4 ~writable:true in
      t_file_read t k docroot
        ~from_page:(Rng.int rng (docroot_pages - 4))
        ~pages:4 ~buf;
      t_munmap t k ~ea:buf ~pages:4

let run t k ~(params : Server.params) =
  if params.Server.model <> Server.Pool then
    invalid_arg "Reqtrace.run: only the pool model is re-driven";
  let p = params in
  let rng = Kernel.rng k in
  let disp =
    Kernel.spawn k ~text_pages:disp_text ~data_pages:disp_data ~stack_pages:4
      ()
  in
  let docroot =
    Vfs.create_file (Kernel.vfs k) ~name:"docroot" ~pages:docroot_pages
  in
  let pipe = Kernel.new_pipe k in
  t_switch_to t k disp;
  t_user_run t k ~instrs:2_000;
  let hist = Hist.create () in
  let kind_hists = Array.map (fun _ -> Hist.create ()) Server.kinds in
  let fresh_worker () =
    let w = t_fork t k in
    t_switch_to t k w;
    t_exec t k ~text_pages:worker_text ~data_pages:worker_data ~stack_pages:2;
    t_user_run t k ~instrs:500;
    t_switch_to t k disp;
    w
  in
  let pool = Array.init p.Server.pool_workers (fun _ -> fresh_worker ()) in
  let served = Array.make (max 1 (Array.length pool)) 0 in
  let worker_data_ea = data_of ~text_pages:worker_text in
  let next_arrival = ref (Kernel.cycles k + p.Server.interarrival) in
  for n = 0 to p.Server.requests - 1 do
    let arrival = !next_arrival in
    next_arrival :=
      arrival + p.Server.interarrival + Rng.int rng (max 1 p.Server.jitter);
    let now = Kernel.cycles k in
    if now < arrival then t_idle_for t k ~cycles:(arrival - now);
    enter t request;
    let kind = pick_kind rng p.Server.mix in
    let ki = Server.kind_index kind in
    t_user_run t k ~instrs:400;
    let wi = n mod Array.length pool in
    let w = pool.(wi) in
    t_switch_to t k w;
    serve t k ~rng ~docroot ~pipe ~data_ea:worker_data_ea
      ~data_pages:worker_data kind;
    t_switch_to t k disp;
    served.(wi) <- served.(wi) + 1;
    let recycle =
      p.Server.worker_requests > 0 && served.(wi) >= p.Server.worker_requests
    in
    let lat = Kernel.cycles k - arrival in
    Hist.observe hist lat;
    Hist.observe kind_hists.(ki) lat;
    leave t;
    if recycle then begin
      t_switch_to t k pool.(wi);
      t_exit t k;
      t_switch_to t k disp;
      pool.(wi) <- fresh_worker ();
      served.(wi) <- 0
    end
  done;
  Array.iter
    (fun w ->
      t_switch_to t k w;
      t_exit t k)
    pool;
  t_switch_to t k disp;
  t_exit t k;
  ( hist,
    Array.to_list
      (Array.mapi (fun i h -> (Server.kind_name Server.kinds.(i), h)) kind_hists)
  )

(* ----------------------------------------------------------- results *)

let durations_us t id =
  Array.init (min t.calls.(id) max_durs) (fun i ->
      float_of_int t.durs.(id).(i) *. 1e-3)

(* Per span (name, unit, value): calls, self ms, p99 us (nan when fewer
   than 1000 calls would make it dishonest) and minor words per call,
   children included. *)
let metrics t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun id name ->
            let c = t.calls.(id) in
            [ (name ^ ".calls", "count", float_of_int c);
              (name ^ ".self_ms", "ms", float_of_int t.self_ns.(id) *. 1e-6);
              ( name ^ ".p99_us",
                "us",
                match Stats.p99 (durations_us t id) with
                | Some v -> v
                | None -> nan );
              ( name ^ ".words_per_call",
                "words",
                if c = 0 then 0. else t.words.(id) /. float_of_int c ) ])
          names))

let summary t id = Stats.summarize (durations_us t id)
