open Ppc

exception Segfault of Addr.ea
exception Kernel_fault of Addr.ea

(* internal: a COW break serviced the fault; retry the access *)
exception Cow_broken

type t = {
  k_machine : Machine.t;
  k_policy : Policy.t;
  k_perf : Perf.t;
  k_memsys : Memsys.t;
  k_mmu : Mmu.t;
  k_physmem : Physmem.t;
  k_vsid : Vsid_alloc.t;
  k_pagepool : Pagepool.t;
  k_vfs : Vfs.t;
  k_rng : Rng.t;
  kernel_pt : Pagetable.t;
  mutable k_tasks : Task.t list;
  (* SMP: one current task per CPU; [k_cpu] is the CPU whose point of
     view the kernel paths execute from ([set_active_cpu] moves it and
     swaps the MMU onto that CPU's registers/TLBs).  At [cpus = 1] this
     is exactly the old single [k_current]. *)
  k_cpus : int;
  mutable k_cpu : int;
  k_currents : Task.t option array;
  mutable next_pid : int;
  mutable next_pipe : int;
  mutable idle_count : int;
  mutable next_tick : int;
  (* frames shared copy-on-write between address spaces: rpn -> number of
     referencing address spaces (absent = exclusively owned) *)
  cow_refs : (int, int) Hashtbl.t;
  (* [charge_pt_update]'s [on_ref]: one page-table entry written
     through the cache, built once at boot like [Mmu]'s [on_pt_ref] *)
  on_pt_write : Addr.pa -> unit;
}

let disk_wait_cycles = 25_000

(* --- accessors -------------------------------------------------------- *)

let machine t = t.k_machine
let policy t = t.k_policy
let perf t = t.k_perf
let memsys t = t.k_memsys
let mmu t = t.k_mmu
let shadow t = Mmu.shadow t.k_mmu
let physmem t = t.k_physmem
let kernel_pagetable t = t.kernel_pt
let vsid_alloc t = t.k_vsid
let pagepool t = t.k_pagepool
let vfs t = t.k_vfs
let rng t = t.k_rng
let trace t = Memsys.trace t.k_memsys
let profile t = Memsys.profile t.k_memsys
let span t = Memsys.span t.k_memsys
let recorder t = Memsys.recorder t.k_memsys

(* Long-horizon aging (ROADMAP item 3): advance the VSID context counter
   as if [contexts] address spaces had already come and gone, so a run
   of feasible length still crosses the 20-bit wrap the paper
   hand-waves.  Delegates to the allocator; O(1), observation-safe. *)
let age_address_spaces t ~contexts = Vsid_alloc.age t.k_vsid ~contexts
let cycles t = t.k_perf.Perf.cycles
let us t = Cost.us_of_cycles ~mhz:t.k_machine.Machine.mhz (cycles t)
let tasks t = t.k_tasks
let current t = t.k_currents.(t.k_cpu)
let cpus t = t.k_cpus

(* Move the kernel's (and the MMU's) point of view to another CPU.
   Pure bookkeeping — no charge; at [cpus = 1] this is a no-op, so the
   single-CPU scheduler loop stays byte-identical. *)
let set_active_cpu t cpu =
  if cpu < 0 || cpu >= t.k_cpus then invalid_arg "Kernel.set_active_cpu";
  if cpu <> t.k_cpu then begin
    t.k_cpu <- cpu;
    Mmu.set_cpu t.k_mmu cpu;
    Mmu.set_pid t.k_mmu
      (match t.k_currents.(cpu) with
      | Some task -> task.Task.pid
      | None -> 0)
  end

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* Remote CPUs that may cache translations of [mm]: every CPU the
   address space has ever run on, minus the one doing the flushing.
   Conservative, like Linux's mm_cpumask.  Always 0 at [cpus = 1]. *)
let remote_targets t mm =
  if t.k_cpus = 1 then 0
  else Mm.cpumask mm land lnot (1 lsl t.k_cpu) land ((1 lsl t.k_cpus) - 1)

(* --- boot ------------------------------------------------------------- *)

let lazy_flush_available t =
  Vsid_alloc.source t.k_vsid = Vsid_alloc.Context_counter

let max_cpus = 30

(* The kernel registry: the one place a caller that cannot reach the
   kernels being booted (the experiment registry boots its own) finds
   them again, to read their counters and instruments after a run.
   Tests and benches boot thousands of kernels and must not accumulate
   them, so a kernel registers only while the registry is armed. *)
let registry_armed = ref false
let registry : t list ref = ref []  (* newest first *)

let set_smp_register b = registry_armed := b

let drain_smp_registered () =
  let l = List.rev !registry in
  registry := [];
  l

let boot ~machine ~policy ?(seed = 42) ?shadow ?cpus () =
  let config = Boot.current () in
  let cpus = Option.value cpus ~default:config.Boot.cpus in
  if cpus < 1 || cpus > max_cpus then invalid_arg "Kernel.boot: cpus";
  let perf = Perf.create () in
  let memsys = Memsys.create ~machine ~perf in
  let rng = Rng.create ~seed in
  (* the MMU's eviction choices draw from their own stream so that two
     policies compared at the same seed see byte-identical workloads *)
  let mmu_rng = Rng.create ~seed:(seed lxor 0x5DEECE66D) in
  let physmem =
    Physmem.create ~ram_bytes:machine.Machine.ram_bytes
      ~reserved_bytes:Kparams.reserved_bytes
  in
  let vsid =
    Vsid_alloc.create ~source:policy.Policy.vsid_source
      ~multiplier:policy.Policy.vsid_multiplier
  in
  (* Kernel context structure sits at the head of kernel data. *)
  let kernel_pt =
    Pagetable.create ~physmem ~ctx_pa:(Kparams.data_pa + 0x80)
  in
  let dummy_backing = { Mmu.walk = (fun ~on_ref:_ _ -> -1) } in
  let mmu =
    Mmu.create ~htab_base_pa:Kparams.htab_pa ~cpus ~machine ~memsys
      ~knobs:(Policy.mmu_knobs policy) ~backing:dummy_backing ~rng:mmu_rng ()
  in
  (* Shadow checking: explicit request wins; otherwise the boot
     configuration decides. *)
  if Option.value shadow ~default:config.Boot.shadow then
    Mmu.attach_shadow mmu (Shadow.create ());
  let t =
    { k_machine = machine;
      k_policy = policy;
      k_perf = perf;
      k_memsys = memsys;
      k_mmu = mmu;
      k_physmem = physmem;
      k_vsid = vsid;
      k_pagepool =
        Pagepool.create ~physmem ~memsys ~clearing:policy.Policy.idle_clearing
          ~use_list:policy.Policy.idle_clear_list ();
      k_vfs = Vfs.create ~physmem;
      k_rng = rng;
      kernel_pt;
      k_tasks = [];
      k_cpus = cpus;
      k_cpu = 0;
      k_currents = Array.make cpus None;
      next_pid = 1;
      next_pipe = 0;
      idle_count = 0;
      next_tick = Kparams.timer_tick_cycles;
      cow_refs = Hashtbl.create 64;
      on_pt_write =
        (fun pa ->
          Memsys.data_ref memsys ~source:Cache.Page_table
            ~inhibited:policy.Policy.cache_inhibit_pagetables ~write:true pa) }
  in
  (* Linear kernel map: every RAM frame is visible at
     [kernel_base + physical].  With the BAT optimization one block
     register covers it all and the pages never enter TLB or htab;
     without it, kernel references page-fault through these PTEs like any
     others — the 33%-of-the-TLB footprint of §5.1.  Its PTE pages are
     linear: their frames are allocated, in the order mapping frame by
     frame would take them, but their words are computed on demand. *)
  Pagetable.map_linear kernel_pt ~physmem ~ea:Kparams.kernel_base
    (Pagetable.pte ~rpn:0 ~writable:true ~inhibited:false ~shared:false
       ~cow:false)
    ~pages:(Physmem.total_frames physmem);
  (* Every CPU gets the same kernel view: BAT banks and kernel segment
     registers are programmed per CPU at boot (cost-free bookkeeping, so
     the [cpus = 1] boot charges exactly what it always did). *)
  for cpu = 0 to cpus - 1 do
    if policy.Policy.bat_kernel_mapping then begin
      (* BAT blocks are power-of-two sized; round an odd RAM size up (the
         excess maps nothing the workloads can reach) *)
      let rec pow2 n =
        if n >= machine.Machine.ram_bytes then n else pow2 (n * 2)
      in
      let length = max Bat.min_block (pow2 Bat.min_block) in
      Bat.set (Mmu.ibat_of mmu ~cpu) ~index:0 ~base_ea:Kparams.kernel_base
        ~length ~phys_base:0;
      Bat.set (Mmu.dbat_of mmu ~cpu) ~index:0 ~base_ea:Kparams.kernel_base
        ~length ~phys_base:0
    end;
    (* Kernel segment registers hold fixed VSIDs, loaded once. *)
    Segment.load_kernel (Mmu.segments_of mmu ~cpu) (fun sr ->
        Vsid_alloc.kernel_vsid ~sr)
  done;
  (* The MMU resolves kernel EAs against the linear map and user EAs
     against the current task. *)
  let translation w =
    if w < 0 then -1
    else
      Mmu.pack ~rpn:(Pagetable.rpn w) ~writable:(Pagetable.writable w)
        ~inhibited:(Pagetable.inhibited w)
  in
  let walk ~on_ref ea =
    if Segment.is_kernel_ea ea then
      translation (Pagetable.walk t.kernel_pt ~ea ~on_ref)
    else
      (* the active CPU's current task — the reference translator must
         judge each CPU's accesses against that CPU's address space *)
      match t.k_currents.(t.k_cpu) with
      | None -> -1
      | Some task ->
          translation (Pagetable.walk (Mm.pagetable task.Task.mm) ~ea ~on_ref)
  in
  Mmu.set_backing mmu { Mmu.walk };
  Mmu.set_vsid_is_zombie mmu (Vsid_alloc.is_zombie vsid);
  (* The attribution profiler's TLB census classifies slots with the
     same ownership test as the §5.1 footprint measurement.  Like Trace,
     the profiler itself was created (and, if the boot configuration
     names it, armed) inside [Memsys.create] above. *)
  Mmu.set_vsid_is_kernel mmu Vsid_alloc.is_kernel;
  (* The §7 escape hatch at the 20-bit context-counter wrap: before any
     wrapped id is re-issued, flush every TLB on every CPU and purge the
     htab of zombie PTEs, so a retired id's stale translations — local
     or cached in a remote TLB — cannot resurrect.  Live ids are skipped
     by the allocator itself. *)
  Vsid_alloc.set_on_wrap vsid (fun () ->
      perf.Perf.vsid_wraps <- perf.Perf.vsid_wraps + 1;
      Memsys.instructions memsys Kparams.vsid_wrap_instr;
      Mmu.invalidate_all_cpus mmu;
      match Mmu.htab mmu with
      | None -> ()
      | Some h ->
          ignore (Mmu.reclaim_zombies mmu ~max_ptes:(Htab.capacity h) : int));
  if !registry_armed then registry := t :: !registry;
  t

(* --- kernel path execution ------------------------------------------- *)

(* A kernel access must always resolve; the linear map covers all RAM. *)
let kaccess t kind ea =
  if Mmu.access_pa t.k_mmu kind ea < 0 then raise (Kernel_fault ea)

(* Run a kernel code path: [instrs] cycles of instructions with one
   I-fetch per 8 instructions from the path's text region, plus the given
   kernel data references.  Long paths loop (register save/restore,
   copy loops), so their static text footprint is bounded: fetches cycle
   within at most [max_path_lines] distinct lines. *)
let max_path_lines = 48 (* 1.5 KB of text per kernel path *)

(* The path's fetches.  While nothing watches between two charges (no
   instrument, no shadow) and the current CPU's IBAT covers the text,
   they are one run: one BAT translation, an I-cache reference per line
   and one charge.  A BAT block is at least [Bat.min_block] long and
   aligned to its length, so text inside one [min_block]-aligned chunk
   is covered all or not at all.  Otherwise each fetch goes through the
   MMU, and the first that fails raises [Kernel_fault]. *)
let fetch_text t code_ea ~lines ~distinct =
  let m = t.k_memsys in
  let last = code_ea + ((distinct - 1) * Addr.line_size) in
  let pa = Bat.translate_pa (Mmu.ibat t.k_mmu) code_ea in
  if
    pa >= 0
    && code_ea / Bat.min_block = last / Bat.min_block
    && Option.is_none (Mmu.shadow t.k_mmu)
    && not (Memsys.observed m)
  then begin
    let owed = ref 0 in
    for i = 0 to lines - 1 do
      let line = pa + (i mod distinct * Addr.line_size) in
      owed := !owed + Memsys.inst_ref_cycles m line
    done;
    Memsys.stall m !owed
  end
  else
    for i = 0 to lines - 1 do
      kaccess t Mmu.Fetch (code_ea + (i mod distinct * Addr.line_size))
    done

let run_path t ~off ~instrs ~data =
  let code_ea = Kparams.kernel_virt_of_phys (Kparams.text_pa + off) in
  Memsys.instructions t.k_memsys instrs;
  let lines = max 1 (instrs / 8) in
  fetch_text t code_ea ~lines ~distinct:(min lines max_path_lines);
  List.iter
    (fun (write, ea) ->
      kaccess t (if write then Mmu.Store else Mmu.Load) ea)
    data

let current_task_refs t =
  match t.k_currents.(t.k_cpu) with
  | None -> [ (false, Kparams.runqueue_ea) ]
  | Some task ->
      [ (false, Kparams.runqueue_ea);
        (false, Task.task_struct_ea task);
        (true, Task.kstack_ea task) ]

(* Stack save/restore traffic of the original C entry paths. *)
let stack_refs t n =
  match t.k_currents.(t.k_cpu) with
  | None -> []
  | Some task ->
      List.init n (fun i ->
          (true, Task.kstack_ea task + (i * Addr.line_size mod 1024)))

(* One §6.1 entry path — the syscall entry, the context switch and the
   timer interrupt: the hand-tuned fast path's [fast] instructions, or
   the original C path's [slow] plus [slow_stack_refs] lines of stack
   save/restore after the path's own [data] references. *)
let entry_path t ~off ~fast ~slow ~slow_stack_refs ~data =
  if t.k_policy.Policy.fast_paths then run_path t ~off ~instrs:fast ~data
  else
    run_path t ~off ~instrs:slow ~data:(data @ stack_refs t slow_stack_refs)

let timer_tick t =
  t.next_tick <- t.k_perf.Perf.cycles + Kparams.timer_tick_cycles;
  entry_path t ~off:Kparams.off_sched ~fast:Kparams.tick_fast
    ~slow:Kparams.tick_slow ~slow_stack_refs:Kparams.tick_slow_stack_refs
    ~data:(current_task_refs t);
  if t.k_policy.Policy.cache_preload then
    match t.k_currents.(t.k_cpu) with
    | None -> ()
    | Some task ->
        let ts = Kparams.kernel_phys_of_virt (Task.task_struct_ea task) in
        for i = 0 to 1 do
          Memsys.prefetch t.k_memsys ~source:Cache.Kernel
            (ts + (i * Addr.line_size))
        done

(* The clock ticks no matter what the workload is doing; checked at the
   operation boundaries (syscalls, user references, idle turns). *)
let[@inline] maybe_tick t =
  if t.k_perf.Perf.cycles >= t.next_tick then timer_tick t

(* The syscall boundary, written once.  Every [sys_*] makes its checks
   first and only then enters here, so a rejected call charges nothing
   and opens no window.  Entering notices a pending tick, counts the
   call, opens the current request's span window (stamped before the
   entry path charges, so the window covers all of it), charges the
   entry path and runs [body]; the window closes whether [body] returns
   or raises. *)
let syscall t body =
  maybe_tick t;
  t.k_perf.Perf.syscalls <- t.k_perf.Perf.syscalls + 1;
  let sp = span t in
  Span.syscall_begin sp;
  Fun.protect
    ~finally:(fun () -> Span.syscall_end sp)
    (fun () ->
      entry_path t ~off:Kparams.off_syscall ~fast:Kparams.syscall_fast
        ~slow:Kparams.syscall_slow
        ~slow_stack_refs:Kparams.syscall_slow_stack_refs
        ~data:(current_task_refs t);
      body ())

(* --- flushing --------------------------------------------------------- *)

let vsid_of_ea t ~mm ea =
  Vsid_alloc.vsid t.k_vsid ~ctx:(Mm.ctx mm) ~sr:(Addr.sr_index ea)

let load_user_segments t mm =
  Memsys.stall t.k_memsys Kparams.segment_load_cycles;
  Segment.load_user (Mmu.segments t.k_mmu) (fun sr ->
      Mm.vsid_for_sr mm ~vsid_alloc:t.k_vsid sr)

let context_reset t ~mm =
  t.k_perf.Perf.flush_context_resets <-
    t.k_perf.Perf.flush_context_resets + 1;
  let old_ctx = Mm.ctx mm in
  let fresh =
    Vsid_alloc.renew_context t.k_vsid ~old_ctx ~pid:(Mm.pid mm)
  in
  Mm.set_ctx mm fresh;
  (match Mmu.shadow t.k_mmu with
  | None -> ()
  | Some sh -> Shadow.note_flush sh ~what:"context-reset" ~vsid:old_ctx ~ea:0);
  let tr = trace t in
  if Trace.enabled tr then
    Trace.emit tr Trace.Flush_context ~pid:(Mmu.pid t.k_mmu) ~a:old_ctx
      ~b:fresh;
  Memsys.instructions t.k_memsys 40;
  (* The lazy reset is also the SMP win: remote TLBs keep the retired
     VSID's entries as zombies instead of being shot down — count every
     remote invalidation the reset just elided.  But a CPU {e currently
     running} this address space must reload its segment registers now,
     which costs an IPI round; the local CPU reloads directly. *)
  let remote = remote_targets t mm in
  if remote <> 0 then
    t.k_perf.Perf.shootdowns_deferred <-
      t.k_perf.Perf.shootdowns_deferred + popcount remote;
  for cpu = 0 to t.k_cpus - 1 do
    match t.k_currents.(cpu) with
    | Some task when task.Task.mm == mm ->
        if cpu = t.k_cpu then load_user_segments t mm
        else begin
          t.k_perf.Perf.ipis_sent <- t.k_perf.Perf.ipis_sent + 1;
          Memsys.stall t.k_memsys Cost.ipi_send_cycles;
          Memsys.instructions t.k_memsys Cost.ipi_handler_instr;
          Memsys.stall t.k_memsys Kparams.segment_load_cycles;
          Segment.load_user (Mmu.segments_of t.k_mmu ~cpu) (fun sr ->
              Mm.vsid_for_sr mm ~vsid_alloc:t.k_vsid sr);
          Memsys.stall t.k_memsys Cost.ipi_ack_wait_cycles
        end
    | Some _ | None -> ()
  done

(* One precise page flush plus, on SMP, the broadcast shootdown to every
   remote CPU that may cache the translation.  [targets = 0] (always, at
   [cpus = 1]) makes the shootdown a complete no-op. *)
let flush_page_mm t ~mm ~targets pea =
  let vsid = vsid_of_ea t ~mm pea in
  Mmu.flush_page_for_vsid t.k_mmu ~vsid pea;
  if targets <> 0 then Mmu.shootdown_page t.k_mmu ~vsid ~targets pea

(* Precise flush of a set of pages: flush each page locally, then one
   IPI round covers them all on each remote CPU.  At [targets = 0] —
   always, at one CPU — nothing is collected and no round runs. *)
let precise_flush_pages t ~mm ~targets ~each =
  let flushed = ref [] in
  each (fun pea ->
      let vsid = vsid_of_ea t ~mm pea in
      Mmu.flush_page_for_vsid t.k_mmu ~vsid pea;
      if targets <> 0 then flushed := (vsid, pea) :: !flushed);
  Mmu.shootdown_range t.k_mmu ~targets (List.rev !flushed)

let precise_flush_range t ~mm ~ea ~pages =
  let targets = remote_targets t mm in
  precise_flush_pages t ~mm ~targets ~each:(fun flush ->
      for i = 0 to pages - 1 do
        flush (ea + (i lsl Addr.page_shift))
      done)

let flush_range t ~mm ~ea ~pages =
  match t.k_policy.Policy.flush_cutoff with
  | Some cutoff when lazy_flush_available t && pages > cutoff ->
      context_reset t ~mm
  | Some _ | None -> precise_flush_range t ~mm ~ea ~pages

let flush_whole_mm t ~mm =
  if lazy_flush_available t then context_reset t ~mm
  else begin
    let targets = remote_targets t mm in
    precise_flush_pages t ~mm ~targets ~each:(fun flush ->
        Pagetable.iter (Mm.pagetable mm) (fun ea _w -> flush ea))
  end

(* --- processes -------------------------------------------------------- *)

(* The trace's record of an address-space edit: [kind] is [Vma_map] or
   [Vma_unmap], owned by the address space's pid.  Called wherever the
   kernel adds or removes a vma. *)
let trace_vma t kind mm (v : Mm.vma) =
  Trace.emit (trace t) kind ~pid:(Mm.pid mm) ~a:v.Mm.va_start
    ~b:v.Mm.va_pages

let add_vma t mm v =
  Mm.add_vma mm v;
  trace_vma t Trace.Vma_map mm v

let standard_vmas ~text_pages ~data_pages ~stack_pages =
  [ { Mm.va_start = Mm.user_text_base; va_pages = text_pages;
      va_writable = false; va_backing = Mm.Anonymous };
    { Mm.va_start =
        Mm.user_text_base + (text_pages lsl Addr.page_shift);
      va_pages = data_pages;
      va_writable = true;
      va_backing = Mm.Anonymous };
    { Mm.va_start = Mm.user_stack_top - (stack_pages lsl Addr.page_shift);
      va_pages = stack_pages;
      va_writable = true;
      va_backing = Mm.Anonymous } ]

let spawn t ?(text_pages = 16) ?(data_pages = 16) ?(stack_pages = 8) () =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let mm =
    Mm.create ~physmem:t.k_physmem ~vsid_alloc:t.k_vsid ~pid ()
  in
  List.iter (add_vma t mm) (standard_vmas ~text_pages ~data_pages ~stack_pages);
  let task = Task.create ~pid ~mm in
  t.k_tasks <- task :: t.k_tasks;
  task

(* A thread-like task: its own pid, task_struct and kernel stack, but
   the same address space (mm, page table, VSIDs) as [peer] — the
   clone(CLONE_VM) shape a shared-mm server pool uses.  Threads must not
   [sys_exit] (that would tear down the shared address space); a server
   parks them instead. *)
let spawn_thread t ~peer =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  Memsys.instructions t.k_memsys Kparams.fork_base;
  let task = Task.create ~pid ~mm:peer.Task.mm in
  task.Task.code_cursor <- peer.Task.code_cursor;
  t.k_tasks <- task :: t.k_tasks;
  task

(* The frame-buffer aperture lives outside RAM in physical space. *)
let framebuffer_phys_base = 0x0800_0000
let framebuffer_rpn = framebuffer_phys_base lsr Addr.page_shift
let framebuffer_bat_index = 2

let switch_to t task =
  let switch_start = t.k_perf.Perf.cycles in
  t.k_perf.Perf.context_switches <- t.k_perf.Perf.context_switches + 1;
  let outgoing =
    match t.k_currents.(t.k_cpu) with
    | Some old -> [ (true, Task.task_struct_ea old) ]
    | None -> []
  in
  entry_path t ~off:Kparams.off_sched ~fast:Kparams.switch_fast
    ~slow:Kparams.switch_slow ~slow_stack_refs:Kparams.switch_slow_stack_refs
    ~data:
      ((false, Kparams.runqueue_ea)
      :: (false, Task.task_struct_ea task)
      :: (true, Task.kstack_ea task)
      :: outgoing);
  load_user_segments t task.Task.mm;
  (* §5.1's proposal: the frame-buffer BAT belongs to the process and is
     switched with it. *)
  if t.k_policy.Policy.bat_framebuffer then begin
    if task.Task.maps_framebuffer then
      Bat.set (Mmu.dbat t.k_mmu) ~index:framebuffer_bat_index
        ~base_ea:Mm.framebuffer_base ~length:Mm.framebuffer_bytes
        ~phys_base:framebuffer_phys_base
    else Bat.clear (Mmu.dbat t.k_mmu) ~index:framebuffer_bat_index
  end;
  (* §10.2: prefetch the incoming task's hot kernel lines while the
     switch completes. *)
  if t.k_policy.Policy.cache_preload then begin
    let m = t.k_memsys in
    let ts = Kparams.kernel_phys_of_virt (Task.task_struct_ea task) in
    let ks = Kparams.kernel_phys_of_virt (Task.kstack_ea task) in
    for i = 0 to 1 do
      Memsys.prefetch m ~source:Cache.Kernel (ts + (i * Addr.line_size))
    done;
    for i = 0 to 3 do
      Memsys.prefetch m ~source:Cache.Kernel (ks + (i * Addr.line_size))
    done
  end;
  task.Task.state <- Task.Ready;
  t.k_currents.(t.k_cpu) <- Some task;
  (* Linux-style mm_cpumask: this CPU may now cache translations of the
     task's address space; flushes must include it until the mask is
     reset (we never narrow it — conservative, like the real thing). *)
  Mm.note_running task.Task.mm ~cpu:t.k_cpu;
  Mmu.set_pid t.k_mmu task.Task.pid;
  let tr = trace t in
  if Trace.enabled tr then
    Trace.emit_context_switch tr ~pid:task.Task.pid
      ~cost:(t.k_perf.Perf.cycles - switch_start);
  (* span attribution: the incoming pid names the request now being
     served; the switch cost is part of its critical path *)
  Span.note_context_switch (span t) ~pid:task.Task.pid
    ~cost:(t.k_perf.Perf.cycles - switch_start)

let require_current t =
  match t.k_currents.(t.k_cpu) with
  | Some task -> task
  | None -> invalid_arg "Kernel: no current task"

(* The frame-buffer BAT belongs to the mapping: dropping the mapping
   must drop the register too, or stale translations outlive munmap. *)
let drop_framebuffer t task =
  if task.Task.maps_framebuffer then begin
    task.Task.maps_framebuffer <- false;
    if t.k_policy.Policy.bat_framebuffer then
      Bat.clear (Mmu.dbat t.k_mmu) ~index:framebuffer_bat_index
  end

(* --- idle task -------------------------------------------------------- *)

(* One turn around the idle loop.  The loop itself polls the scheduler
   (a few dozen instructions); every 16th turn scans a 64-slot chunk of
   the htab for zombie PTEs (§7) — throttled so a sweep of the whole
   table takes many idle windows, as a background scavenger should — and
   otherwise one free page is cleared if clearing is configured (§9). *)
let idle_slice t =
  maybe_tick t;
  Memsys.set_idle t.k_memsys true;
  if t.k_policy.Policy.idle_cache_lock then
    Memsys.set_cache_locked t.k_memsys true;
  Memsys.instructions t.k_memsys Kparams.idle_loop_slice;
  t.idle_count <- t.idle_count + 1;
  if
    t.k_policy.Policy.idle_zombie_reclaim
    && t.idle_count mod Policy.reclaim_interval_slices = 0
  then
    ignore
      (Mmu.reclaim_zombies t.k_mmu ~max_ptes:Policy.reclaim_chunk_ptes
        : int)
  else ignore (Pagepool.idle_clear_one t.k_pagepool : bool);
  if t.k_policy.Policy.idle_cache_lock then
    Memsys.set_cache_locked t.k_memsys false;
  Memsys.set_idle t.k_memsys false

let idle_for t ~cycles:n =
  let start = cycles t in
  let target = start + n in
  while cycles t < target do
    idle_slice t
  done;
  let tr = trace t in
  if Trace.enabled tr then
    Trace.emit tr Trace.Idle_window ~pid:0 ~a:0 ~b:(cycles t - start)

(* An idle CPU pulled a runnable task off another CPU's queue: charge the
   run-queue lock + migration bookkeeping and count it.  The scheduler
   calls this; queue surgery itself lives there. *)
let note_work_steal t =
  t.k_perf.Perf.work_steals <- t.k_perf.Perf.work_steals + 1;
  Memsys.instructions t.k_memsys Kparams.steal_instr

(* Release one mapping's frame: page-cache/device frames are not ours;
   a copy-on-write frame is freed only by its last referent. *)
let release_frame t w =
  if not (Pagetable.shared w) then begin
    let rpn = Pagetable.rpn w in
    match Hashtbl.find_opt t.cow_refs rpn with
    | Some n when n > 2 -> Hashtbl.replace t.cow_refs rpn (n - 1)
    | Some _ -> Hashtbl.remove t.cow_refs rpn
    | None -> Pagepool.free_page t.k_pagepool rpn
  end

(* --- faults and user execution --------------------------------------- *)

let charge_pt_update t pt ~ea =
  ignore (Pagetable.walk pt ~ea ~on_ref:t.on_pt_write : int)

let handle_user_fault t kind ea =
  let task = require_current t in
  t.k_perf.Perf.page_faults <- t.k_perf.Perf.page_faults + 1;
  let tr = trace t in
  if Trace.enabled tr then
    Trace.emit tr Trace.Page_fault ~pid:(Mmu.pid t.k_mmu) ~a:ea
      ~b:(match kind with Mmu.Fetch -> 0 | Mmu.Load -> 1 | Mmu.Store -> 2);
  run_path t ~off:Kparams.off_fault ~instrs:Kparams.fault_service
    ~data:(current_task_refs t);
  let mm = task.Task.mm in
  match Mm.find_vma mm ea with
  | None -> raise (Segfault ea)
  | Some vma ->
      if kind = Mmu.Store && not vma.Mm.va_writable then raise (Segfault ea);
      let pt = Mm.pagetable mm in
      let w = Pagetable.find pt ~ea in
      if w >= 0 then begin
        if not (Pagetable.cow w && kind = Mmu.Store && vma.Mm.va_writable)
        then
          (* Translation exists but faulted anyway: a protection error. *)
          raise (Segfault ea);
        (* Copy-on-write break: give this address space its own frame
           (or reclaim exclusivity if everyone else is gone). *)
        let shared_rpn = Pagetable.rpn w in
        let upgraded =
          match Hashtbl.find_opt t.cow_refs shared_rpn with
          | Some n -> begin
              match Pagepool.get_page t.k_pagepool with
              | None -> raise Pagetable.Out_of_frames
              | Some rpn ->
                  Memsys.copy_lines t.k_memsys ~source:Cache.Kernel
                    ~src:(shared_rpn lsl Addr.page_shift)
                    ~dst:(rpn lsl Addr.page_shift) ~bytes:Addr.page_size;
                  if n > 2 then Hashtbl.replace t.cow_refs shared_rpn (n - 1)
                  else Hashtbl.remove t.cow_refs shared_rpn;
                  Pagetable.break_cow w ~rpn
            end
          | None ->
              (* sole surviving referent: upgrade in place *)
              Pagetable.break_cow w ~rpn:shared_rpn
        in
        Pagetable.map pt ~physmem:t.k_physmem ~ea upgraded;
        charge_pt_update t pt ~ea;
        (* the stale read-only translation must die before the retry —
           on every CPU that may cache it, or a sibling thread keeps
           writing the shared frame through the old mapping *)
        flush_page_mm t ~mm ~targets:(remote_targets t mm) ea;
        raise Cow_broken
      end;
      let rpn, shared =
        match vma.Mm.va_backing with
        | Mm.Anonymous -> begin
            match Pagepool.get_zeroed_page t.k_pagepool with
            | Some rpn -> (rpn, false)
            | None -> raise Pagetable.Out_of_frames
          end
        | Mm.File_pages (file, from_page) -> begin
            let page =
              from_page
              + ((ea - vma.Mm.va_start) lsr Addr.page_shift)
            in
            match Vfs.page_frame t.k_vfs file ~page with
            | None -> raise Pagetable.Out_of_frames
            | Some (rpn, cold) ->
                if cold then idle_for t ~cycles:disk_wait_cycles;
                (rpn, true)
          end
        | Mm.Phys_window base_rpn ->
            (* a device aperture: the frame is the window's, not ours *)
            (base_rpn + ((ea - vma.Mm.va_start) lsr Addr.page_shift), true)
      in
      Pagetable.map pt ~physmem:t.k_physmem ~ea
        (Pagetable.pte ~rpn ~writable:vma.Mm.va_writable ~inhibited:false
           ~shared ~cow:false);
      charge_pt_update t pt ~ea

let touch t kind ea =
  maybe_tick t;
  if Segment.is_kernel_ea ea then kaccess t kind ea
  else if Mmu.access_pa t.k_mmu kind ea < 0 then begin
    (match handle_user_fault t kind ea with
    | () -> ()
    | exception Cow_broken -> ());
    if Mmu.access_pa t.k_mmu kind ea < 0 then raise (Segfault ea)
  end

let user_run t ~instrs =
  let task = require_current t in
  let run_start = t.k_perf.Perf.cycles in
  Memsys.instructions t.k_memsys instrs;
  let mm = task.Task.mm in
  let text =
    match Mm.find_vma mm Mm.user_text_base with
    | Some _ as text -> text
    | None -> Mm.find_vma mm task.Task.code_cursor
  in
  (match text with
  | None -> ()
  | Some vma ->
      let text_end = vma.Mm.va_start + (vma.Mm.va_pages lsl Addr.page_shift) in
      let lines = max 1 (instrs / 8) in
      for _ = 1 to lines do
        if
          task.Task.code_cursor < vma.Mm.va_start
          || task.Task.code_cursor >= text_end
        then task.Task.code_cursor <- vma.Mm.va_start;
        touch t Mmu.Fetch task.Task.code_cursor;
        task.Task.code_cursor <- task.Task.code_cursor + Addr.line_size
      done);
  (* span attribution: the whole slice (fetches, faults and reloads
     included) ran on the current request's behalf *)
  Span.note_run (span t) ~cost:(t.k_perf.Perf.cycles - run_start)

(* --- syscalls --------------------------------------------------------- *)

let sys_null t = syscall t ignore

(* What every mapping call does first: the mm path, charged per page,
   then the new vma. *)
let map_vma t mm ~ea ~pages ~writable backing =
  run_path t ~off:Kparams.off_mm
    ~instrs:(Kparams.mmap_base_cost + (pages * Kparams.mmap_per_page))
    ~data:(current_task_refs t);
  add_vma t mm
    { Mm.va_start = ea; va_pages = pages; va_writable = writable;
      va_backing = backing }

(* An mmap anywhere in the arena, of any backing.  The range is chosen
   before the call enters, so a full arena is a rejected call. *)
let mmap t ~pages ~writable backing =
  let mm = (require_current t).Task.mm in
  let ea = Mm.alloc_mmap_range mm ~pages in
  syscall t (fun () ->
      map_vma t mm ~ea ~pages ~writable backing;
      (* New mappings for this range must be the only ones visible: flush
         the range from TLB and htab (the expensive part §7 attacks). *)
      flush_range t ~mm ~ea ~pages;
      ea)

let sys_mmap t ~pages ~writable = mmap t ~pages ~writable Mm.Anonymous

let sys_mmap_file t file ~from_page ~pages ~writable =
  mmap t ~pages ~writable (Mm.File_pages (file, from_page))

(* The aperture must be unmapped, and the mapping must fit in it, before
   the call enters. *)
let sys_map_framebuffer t ~pages =
  let task = require_current t in
  let ea = Mm.framebuffer_base in
  if pages <= 0 || pages lsl Addr.page_shift > Mm.framebuffer_bytes then
    invalid_arg "Kernel.sys_map_framebuffer: pages";
  if not (Mm.range_free task.Task.mm ~ea ~pages) then
    invalid_arg "Kernel.sys_map_framebuffer: aperture already mapped";
  syscall t (fun () ->
      map_vma t task.Task.mm ~ea ~pages ~writable:true
        (Mm.Phys_window framebuffer_rpn);
      task.Task.maps_framebuffer <- true;
      if t.k_policy.Policy.bat_framebuffer then
        Bat.set (Mmu.dbat t.k_mmu) ~index:framebuffer_bat_index ~base_ea:ea
          ~length:Mm.framebuffer_bytes ~phys_base:framebuffer_phys_base;
      ea)

(* A rejected munmap changes nothing: the start and the size are checked
   before the call enters, so the vma, its pages and the span's syscall
   depth all stay as they were. *)
let sys_munmap t ~ea ~pages =
  let task = require_current t in
  let mm = task.Task.mm in
  (match List.find_opt (fun v -> v.Mm.va_start = ea) (Mm.vmas mm) with
  | None -> invalid_arg "Kernel.sys_munmap: no vma at address"
  | Some vma when vma.Mm.va_pages <> pages ->
      invalid_arg "Kernel.sys_munmap: size mismatch"
  | Some _ -> ());
  syscall t (fun () ->
      let vma = Option.get (Mm.remove_vma mm ~start:ea) in
      trace_vma t Trace.Vma_unmap mm vma;
      (match vma.Mm.va_backing with
      | Mm.Phys_window _ -> drop_framebuffer t task
      | Mm.Anonymous | Mm.File_pages _ -> ());
      run_path t ~off:Kparams.off_mm ~instrs:Kparams.munmap_base_cost
        ~data:(current_task_refs t);
      let pt = Mm.pagetable mm in
      for i = 0 to pages - 1 do
        let pea = ea + (i lsl Addr.page_shift) in
        let w = Pagetable.unmap pt ~ea:pea in
        if w >= 0 then begin
          Memsys.instructions t.k_memsys Kparams.munmap_per_mapped_page;
          charge_pt_update t pt ~ea:pea;
          release_frame t w
        end
      done;
      flush_range t ~mm ~ea ~pages)

(* The data vma is the one starting right after the text vma. *)
let data_vma_start mm =
  match Mm.find_vma mm Mm.user_text_base with
  | Some text -> text.Mm.va_start + (text.Mm.va_pages lsl Addr.page_shift)
  | None -> invalid_arg "Kernel.sys_brk: no text vma"

(* The vma grows before the call enters, so a growth that would collide
   with a neighbour (the stack, say) is a rejected call. *)
let sys_brk t ~pages =
  let mm = (require_current t).Task.mm in
  let grown =
    Mm.grow_vma mm ~start:(data_vma_start mm) ~extra_pages:pages
  in
  let new_break =
    grown.Mm.va_start + (grown.Mm.va_pages lsl Addr.page_shift)
  in
  syscall t (fun () ->
      run_path t ~off:Kparams.off_mm ~instrs:Kparams.mmap_base_cost
        ~data:(current_task_refs t);
      flush_range t ~mm ~ea:(new_break - (pages lsl Addr.page_shift)) ~pages;
      new_break)

let sys_fork t =
  let parent = require_current t in
  syscall t (fun () ->
      let pmm = parent.Task.mm in
      run_path t ~off:Kparams.off_exec ~instrs:Kparams.fork_base
        ~data:(current_task_refs t);
      let pid = t.next_pid in
      t.next_pid <- t.next_pid + 1;
      let cmm =
        Mm.create ~physmem:t.k_physmem ~vsid_alloc:t.k_vsid ~pid ()
      in
      List.iter (add_vma t cmm) (Mm.vmas pmm);
      let cpt = Mm.pagetable cmm in
      let ppt = Mm.pagetable pmm in
      (* Copy-on-write: both sides reference the same frame read-only;
         the first store to either copy breaks the sharing. *)
      Pagetable.iter ppt (fun ea w ->
          Memsys.instructions t.k_memsys Kparams.fork_per_page;
          if Pagetable.shared w then begin
            Pagetable.map cpt ~physmem:t.k_physmem ~ea w;
            charge_pt_update t cpt ~ea
          end
          else begin
            let downgraded = Pagetable.share_cow w in
            Pagetable.map ppt ~physmem:t.k_physmem ~ea downgraded;
            Pagetable.map cpt ~physmem:t.k_physmem ~ea downgraded;
            charge_pt_update t cpt ~ea;
            let rpn = Pagetable.rpn w in
            let refs =
              match Hashtbl.find_opt t.cow_refs rpn with
              | Some n -> n + 1
              | None -> 2
            in
            Hashtbl.replace t.cow_refs rpn refs
          end);
      (* The parent's writable translations are now stale: flush its
         whole context (real fork flushed the parent's TLB for the same
         reason). *)
      flush_whole_mm t ~mm:pmm;
      let child = Task.create ~pid ~mm:cmm in
      child.Task.code_cursor <- parent.Task.code_cursor;
      t.k_tasks <- child :: t.k_tasks;
      child)

let release_address_space t mm =
  Pagetable.unmap_all (Mm.pagetable mm) (fun w ->
      Memsys.instructions t.k_memsys Kparams.munmap_per_mapped_page;
      release_frame t w)

let sys_exec t ~text_pages ~data_pages ~stack_pages =
  let task = require_current t in
  syscall t (fun () ->
      let mm = task.Task.mm in
      run_path t ~off:Kparams.off_exec ~instrs:Kparams.exec_base
        ~data:(current_task_refs t);
      (* The old image's translations must all die: the classic whole-mm
         flush. *)
      drop_framebuffer t task;
      flush_whole_mm t ~mm;
      release_address_space t mm;
      Mm.reset_vmas mm;
      List.iter (add_vma t mm)
        (standard_vmas ~text_pages ~data_pages ~stack_pages);
      task.Task.code_cursor <- Mm.user_text_base)

let sys_exit t =
  let task = require_current t in
  syscall t (fun () ->
      run_path t ~off:Kparams.off_sched ~instrs:Kparams.proc_exit
        ~data:(current_task_refs t);
      let mm = task.Task.mm in
      drop_framebuffer t task;
      if not (lazy_flush_available t) then flush_whole_mm t ~mm;
      release_address_space t mm;
      Mm.destroy mm ~physmem:t.k_physmem ~vsid_alloc:t.k_vsid
        ~free_frame:(fun _ -> () (* frames already released above *));
      task.Task.state <- Task.Exited;
      t.k_tasks <- List.filter (fun other -> other != task) t.k_tasks;
      t.k_currents.(t.k_cpu) <- None)

(* --- copies between user and kernel ---------------------------------- *)

(* One line of a copy: [to_kernel] reads the user line through the MMU
   (faulting it in) and writes the kernel line; otherwise the kernel
   line is read and the user line written. *)
let copy_line t ~to_kernel ~user ~kernel =
  if to_kernel then begin
    touch t Mmu.Load user;
    kaccess t Mmu.Store kernel
  end
  else begin
    kaccess t Mmu.Load kernel;
    touch t Mmu.Store user
  end

let new_pipe t =
  let index = t.next_pipe in
  t.next_pipe <- t.next_pipe + 1;
  Pipe.create ~index

(* A pipe write ([to_kernel]) or read: the bytes the pipe accepts or
   holds move between [buf] and the pipe's kernel buffer a line at a
   time.  Returns the bytes moved. *)
let pipe_op t pipe ~buf ~bytes ~to_kernel =
  syscall t (fun () ->
      run_path t ~off:Kparams.off_pipe ~instrs:Kparams.pipe_op
        ~data:(current_task_refs t);
      let n = (if to_kernel then Pipe.write else Pipe.read) pipe ~bytes in
      if n > 0 then begin
        let kernel = Kparams.pipe_buf_ea ~index:(Pipe.index pipe) in
        Memsys.instructions t.k_memsys (n / 4 * Kparams.copy_cycles_per_word);
        for i = 0 to ((n + Addr.line_size - 1) / Addr.line_size) - 1 do
          let off = i * Addr.line_size in
          copy_line t ~to_kernel ~user:(buf + off)
            ~kernel:(kernel + (off land (Pipe.capacity - 1)))
        done
      end;
      n)

let sys_pipe_write t pipe ~buf ~bytes =
  pipe_op t pipe ~buf ~bytes ~to_kernel:true

let sys_pipe_read t pipe ~buf ~bytes =
  pipe_op t pipe ~buf ~bytes ~to_kernel:false

(* The page-cache copy behind file reads and writes ([to_kernel]): whole
   pages between the file's cache frames and [buf], a line at a time.
   [on_cold] decides what a cold page costs the caller. *)
let page_cache_copy t file ~from_page ~pages ~buf ~to_kernel ~on_cold =
  syscall t (fun () ->
      run_path t ~off:Kparams.off_vfs ~instrs:Kparams.read_op
        ~data:(current_task_refs t);
      for p = 0 to pages - 1 do
        match Vfs.page_frame t.k_vfs file ~page:(from_page + p) with
        | None -> raise Pagetable.Out_of_frames
        | Some (rpn, cold) ->
            if cold then on_cold ();
            let kea = Kparams.kernel_virt_of_phys (rpn lsl Addr.page_shift) in
            let user = buf + (p * Addr.page_size) in
            Memsys.instructions t.k_memsys
              ((Addr.page_size / 4 * Kparams.copy_cycles_per_word)
              + Kparams.vfs_per_page);
            for i = 0 to (Addr.page_size / Addr.line_size) - 1 do
              let off = i * Addr.line_size in
              copy_line t ~to_kernel ~user:(user + off) ~kernel:(kea + off)
            done
      done)

let sys_file_read t file ~from_page ~pages ~buf =
  page_cache_copy t file ~from_page ~pages ~buf ~to_kernel:false
    ~on_cold:(fun () -> idle_for t ~cycles:disk_wait_cycles)

let sys_file_read_async t file ~from_page ~pages ~buf =
  let cold = ref 0 in
  page_cache_copy t file ~from_page ~pages ~buf ~to_kernel:false
    ~on_cold:(fun () -> incr cold);
  !cold

(* A fresh page-cache frame needs no disk read before being overwritten:
   the data is copied user -> cache and written behind. *)
let sys_file_write t file ~from_page ~pages ~buf =
  page_cache_copy t file ~from_page ~pages ~buf ~to_kernel:true
    ~on_cold:ignore

(* --- measurement helpers ---------------------------------------------- *)

let kernel_tlb_entries t =
  Mmu.kernel_tlb_entries t.k_mmu ~is_kernel_vsid:Vsid_alloc.is_kernel

let htab_occupancy t =
  match Mmu.htab t.k_mmu with
  | None -> 0
  | Some h -> Htab.occupancy h

let htab_live_and_zombie t =
  match Mmu.htab t.k_mmu with
  | None -> (0, 0)
  | Some h ->
      let live = Htab.count_valid h ~f:(Vsid_alloc.is_live t.k_vsid) in
      (live, Htab.occupancy h - live)
