open Ppc
module Kernel = Kernel_sim.Kernel
module Sched = Kernel_sim.Sched
module Mm = Kernel_sim.Mm
module Vfs = Kernel_sim.Vfs

type params = {
  jobs : int;
  jobserver : int;
  text_pages : int;
  data_pages : int;
  source_pages : int;
  compute_rounds : int;
}

let default_params =
  { jobs = 12;
    jobserver = 2;
    text_pages = 48;
    data_pages = 120;
    source_pages = 24;
    compute_rounds = 10 }

(* One compile job as a state machine over scheduler slices: read the
   source (sleeping on cold pages — that is where parallelism pays),
   compute, emit the object, exit. *)
type phase =
  | Reading of int       (* next source page to request *)
  | Computing of int     (* compute rounds left *)
  | Emitting
  | Exiting

let job_step p (gen : Refgen.t) source buf =
  let state = ref (Reading 0) in
  fun k ->
    match !state with
    | Reading from when from >= p.source_pages ->
        state := Computing p.compute_rounds;
        Sched.Yield
    | Reading from ->
        let n = min 4 (p.source_pages - from) in
        let cold =
          Kernel.sys_file_read_async k source ~from_page:from ~pages:n ~buf
        in
        state := Reading (from + n);
        if cold > 0 then Sched.Sleep (cold * Kernel.disk_wait_cycles)
        else Sched.Yield
    | Computing 0 ->
        state := Emitting;
        Sched.Yield
    | Computing n ->
        Kernel.user_run k ~instrs:2500;
        let rng = Kernel.rng k in
        for _ = 1 to 150 do
          let ea = Refgen.next gen in
          let kind = if Rng.int rng 4 = 0 then Mmu.Store else Mmu.Load in
          Kernel.touch k kind (Addr.page_base ea)
        done;
        state := Computing (n - 1);
        Sched.Yield
    | Emitting ->
        let obj = Kernel.sys_mmap k ~pages:16 ~writable:true in
        for i = 0 to 15 do
          let page = obj + (i lsl Addr.page_shift) in
          for line = 0 to 31 do
            Kernel.touch k Mmu.Store (page + (line * Addr.line_size))
          done
        done;
        Kernel.sys_munmap k ~ea:obj ~pages:16;
        state := Exiting;
        Sched.Yield
    | Exiting ->
        Kernel.sys_exit k;
        Sched.Done

type result = {
  perf : Perf.t;
  wall_us : float;
  busy_us : float;
  idle_fraction : float;
}

let run k ~params:p =
  if p.jobs < 1 || p.jobserver < 1 then
    invalid_arg "Parmake.run: jobs and jobserver must be positive";
  let sched = Sched.create k in
  let enroll i =
    let job =
      Kernel.spawn k ~text_pages:p.text_pages ~data_pages:p.data_pages
        ~stack_pages:8 ()
    in
    let data_ea = Mm.user_text_base + (p.text_pages lsl Addr.page_shift) in
    let gen =
      Refgen.create ~rng:(Kernel.rng k) ~base_ea:data_ea ~pages:p.data_pages
        ~hot_fraction:0.4 ~locality:0.85 ()
    in
    let source =
      Vfs.create_file (Kernel.vfs k)
        ~name:(Printf.sprintf "pm-src-%d-%d" i job.Kernel_sim.Task.pid)
        ~pages:p.source_pages
    in
    (* each job reads into the head of its own data segment *)
    Sched.add sched job (job_step p gen source data_ea)
  in
  (* "make -jN": a supervisor admits a new job whenever the jobserver has
     a free slot, and the scheduler interleaves whatever is runnable *)
  let first = min p.jobserver p.jobs in
  for i = 0 to first - 1 do
    enroll i
  done;
  let admitted = ref first in
  let supervisor = Kernel.spawn k ~text_pages:8 ~data_pages:8 () in
  Sched.add sched supervisor (fun k ->
      (* live includes this supervisor itself *)
      if !admitted < p.jobs && Sched.live sched - 1 < p.jobserver then begin
        enroll !admitted;
        incr admitted
      end;
      Kernel.user_run k ~instrs:200;
      if !admitted >= p.jobs then begin
        Kernel.sys_exit k;
        Sched.Done
      end
      else Sched.Sleep 5_000);
  Sched.run sched

let measure ~machine ~policy ~params ?(seed = 42) () =
  let k = Kernel.boot ~machine ~policy ~seed () in
  let perf = Measure.perf k (fun () -> run k ~params) in
  let mhz = machine.Machine.mhz in
  { perf;
    wall_us = Cost.us_of_cycles ~mhz perf.Perf.cycles;
    busy_us = Cost.us_of_cycles ~mhz (Perf.busy_cycles perf);
    idle_fraction =
      (if perf.Perf.cycles = 0 then 0.0
       else
         float_of_int perf.Perf.idle_cycles /. float_of_int perf.Perf.cycles)
  }
