(** The kernel facade: boot, processes, syscalls, flushing, the idle task.

    A [Kernel.t] is one booted machine: MMU + caches + physical memory +
    the Linux-shaped policy machinery.  Workloads drive it through the
    syscall-level operations below; every operation charges its full cost
    (path instructions, kernel text fetches, kernel data references, MMU
    reloads, cache traffic) through the shared {!Ppc.Memsys}, so
    [Perf.cycles] is the simulated wall clock.

    Scheduling is either workload-driven (microbenchmarks call
    {!switch_to} where lmbench's processes would block and wake, exactly
    reproducing the kernel paths the paper's numbers traverse) or handed
    to {!Kernel_sim.Sched} for macro workloads with real blocking. *)

open Ppc

exception Segfault of Addr.ea
(** A user access with no backing vma (or a store to a read-only vma). *)

exception Kernel_fault of Addr.ea
(** An unresolvable kernel-space access — a simulator invariant
    violation, never expected. *)

type t

val boot :
  machine:Machine.t -> policy:Policy.t -> ?seed:int -> ?shadow:bool ->
  ?cpus:int -> unit -> t
(** Build and boot a system: reserve the kernel image, premap the linear
    kernel map, program BATs (policy permitting), install kernel segment
    registers and the MMU backing, and start the performance monitor.

    [?shadow] attaches a {!Ppc.Shadow} checker that cross-validates
    every translation against the reference MMU.  [?cpus] boots an SMP
    machine: per-CPU segment registers, BAT banks and TLBs behind one
    shared memory system and htab, with every CPU's kernel mapping
    programmed at boot.  At [cpus = 1] the boot — and everything after
    it — is byte-identical to the single-CPU kernel.  When omitted, both
    come from the {!Ppc.Boot} configuration, which also names the
    instruments that start armed — how [experiment] reaches kernels
    booted deep inside the experiment registry.
    @raise Invalid_argument when [cpus] is outside [1, 30]. *)

val set_smp_register : bool -> unit
(** Arm (or disarm) the kernel registry: while armed, every boot
    registers for {!drain_smp_registered}.  Off by default, so tests and
    benches that boot thousands of kernels accumulate none. *)

val drain_smp_registered : unit -> t list
(** Kernels booted while the registry was armed, since the last drain,
    in boot order — the caller reads their counters and instruments
    ({!trace}, {!profile}, {!span}, {!recorder}, {!shadow}) after a
    run. *)

(** {1 Accessors} *)

val machine : t -> Machine.t
val policy : t -> Policy.t
val perf : t -> Perf.t

val trace : t -> Trace.t
(** The event trace attached to this kernel's memory system — shorthand
    for [Memsys.trace (memsys t)]. *)

val profile : t -> Profile.t
(** The attribution profiler attached to this kernel's memory system —
    shorthand for [Memsys.profile (memsys t)].  Its TLB slot census
    classifies entries with {!Vsid_alloc.is_kernel}. *)

val span : t -> Span.t
(** The request-span recorder attached to this kernel's memory system —
    shorthand for [Memsys.span (memsys t)].  The kernel reports syscall
    entry/exit windows, context switches and run slices into it; the
    workload drives the request lifecycle ({!Ppc.Span.request_begin},
    {!Ppc.Span.bind_pid}, {!Ppc.Span.request_end}). *)

val recorder : t -> Recorder.t
(** The flight recorder attached to this kernel's memory system —
    shorthand for [Memsys.recorder (memsys t)].  Gauge sources (htab,
    TLB census, per-CPU miss slices, run queues, span percentiles) are
    installed by their owning subsystems at boot. *)

val age_address_spaces : t -> contexts:int -> unit
(** Advance the VSID context counter as if [contexts] address spaces had
    already come and gone (see {!Vsid_alloc.age}) — the long-horizon
    aging shim that lets a feasible-length run cross the 20-bit context
    wrap.  O(1); charges nothing. *)

val memsys : t -> Memsys.t
val mmu : t -> Mmu.t

val shadow : t -> Shadow.t option
(** The attached shadow checker, if any. *)

val physmem : t -> Physmem.t

val kernel_pagetable : t -> Pagetable.t
(** The kernel's linear map of all RAM at {!Kparams.kernel_base}: the
    tree a kernel reference walks when no BAT covers it.  Its PTE pages
    are linear (see {!Pagetable.map_linear}). *)

val vsid_alloc : t -> Vsid_alloc.t
val pagepool : t -> Pagepool.t
val vfs : t -> Vfs.t
val rng : t -> Rng.t

val cycles : t -> int
(** Simulated wall clock. *)

val us : t -> float
(** Wall clock in microseconds. *)

val tasks : t -> Task.t list

val current : t -> Task.t option
(** The {e active} CPU's current task. *)

(** {1 SMP} *)

val cpus : t -> int

val set_active_cpu : t -> int -> unit
(** Move the kernel's (and MMU's) point of view to another CPU.  Pure
    bookkeeping, no charge; a no-op when already there.  The scheduler
    calls this as it walks its per-CPU run queues.
    @raise Invalid_argument for an out-of-range CPU. *)

val note_work_steal : t -> unit
(** Charge and count one idle-steal migration ({!Kparams.steal_instr});
    called by the scheduler when an idle CPU pulls a runnable task from
    another CPU's queue. *)

(** {1 Processes} *)

val spawn :
  t ->
  ?text_pages:int ->
  ?data_pages:int ->
  ?stack_pages:int ->
  unit ->
  Task.t
(** Create a runnable process with the standard text/data/stack vmas.
    This is a workload {e setup} helper: it charges nothing (measured
    process creation goes through {!sys_fork}/{!sys_exec}). *)

val spawn_thread : t -> peer:Task.t -> Task.t
(** Create a thread-like task sharing [peer]'s address space (mm, page
    table, VSIDs) — the clone(CLONE_VM) shape a shared-mm server pool
    uses.  Charges a fork-entry path length but copies no pages.
    Threads must not {!sys_exit} (that would tear down the shared
    address space); park them instead. *)

val switch_to : t -> Task.t -> unit
(** Context switch: scheduler path, task-struct and stack traffic, user
    segment-register reload from the task's context id. *)

val sys_fork : t -> Task.t
(** Fork the current task: copy vmas and every mapped page into a new
    address space.  Returns the child (ready, not running). *)

val sys_exec :
  t -> text_pages:int -> data_pages:int -> stack_pages:int -> unit
(** Replace the current task's image: flush the whole context (lazy VSID
    reassignment or precise scrubbing per policy), release every frame,
    install fresh vmas.  Pages fault back in on demand. *)

val sys_exit : t -> unit
(** Terminate the current task: flush, release, retire its context id
    (under lazy flushing its VSIDs become zombies).  [current] becomes
    [None]. *)

(** {1 User execution} *)

val touch : t -> Mmu.access_kind -> Addr.ea -> unit
(** One user memory reference through the full MMU, servicing a demand
    fault if needed.
    @raise Segfault when no vma backs the address. *)

val user_run : t -> instrs:int -> unit
(** Execute [instrs] user instructions: cycle cost plus instruction
    fetches walking cyclically through the current task's text vma. *)

val run_path :
  t -> off:int -> instrs:int -> data:(bool * Addr.ea) list -> unit
(** [run_path t ~off ~instrs ~data] runs the kernel code path at
    [off] in the kernel text: [instrs] instruction cycles, one I-fetch
    per 8 instructions cycling over at most 48 lines of text, then the
    kernel data references [data] (a store when the flag is set).
    While no instrument watches the machine, no shadow is attached and
    the active CPU's IBAT covers the text, the fetches are charged as
    one run; the counters, caches and clock end exactly where fetching
    line by line leaves them.
    @raise Kernel_fault at the first reference that does not
    translate. *)

(** {1 Syscalls} *)

val sys_null : t -> unit
(** The null syscall: entry + dispatch + exit only. *)

val sys_mmap : t -> pages:int -> writable:bool -> Addr.ea
(** Create an anonymous mapping; flushes the range per policy (this is
    where the 3240 -> 41 microsecond mmap story of §7 lives). *)

val sys_munmap : t -> ea:Addr.ea -> pages:int -> unit
(** Remove the vma starting at [ea], free its frames (page-cache frames
    stay resident), flush the range.
    @raise Invalid_argument if no vma starts at [ea]. *)

val sys_mmap_file :
  t -> Vfs.file -> from_page:int -> pages:int -> writable:bool -> Addr.ea
(** Map file pages: faults install the page-cache frames directly (cold
    pages cost a disk wait), no zero-fill — what lat_mmap measures. *)

val sys_map_framebuffer : t -> pages:int -> Addr.ea
(** Map the frame-buffer aperture (a device window outside RAM) at
    {!Mm.framebuffer_base} for the current task — what an X server does
    with /dev/mem.  Without the [bat_framebuffer] policy, every touched
    fb page consumes a TLB entry like any other; with it, a data BAT
    dedicated to the aperture is switched in with the owning process
    (§5.1's proposal) and the fb stops competing for TLB space. *)

val sys_brk : t -> pages:int -> Addr.ea
(** Grow the current task's data segment by [pages] (the heap half of
    malloc; large allocations go through {!sys_mmap}).  Like any
    operation "mapping new addresses into a process", the grown range is
    range-flushed per policy.  Returns the new break address.
    @raise Invalid_argument if the task has no data vma or growth would
    collide with a neighbouring mapping. *)

val new_pipe : t -> Pipe.t

val sys_pipe_write : t -> Pipe.t -> buf:Addr.ea -> bytes:int -> int
(** Write syscall: copies accepted bytes user -> kernel pipe buffer a
    line at a time through the MMU.  Returns bytes accepted. *)

val sys_pipe_read : t -> Pipe.t -> buf:Addr.ea -> bytes:int -> int
(** Read syscall: copies available bytes kernel -> user. *)

val sys_file_read :
  t -> Vfs.file -> from_page:int -> pages:int -> buf:Addr.ea -> unit
(** Read file pages through the page cache into a user buffer.  Cold
    pages cost a simulated disk wait spent in the idle task (the whole
    machine waits — the single-process view). *)

val sys_file_read_async :
  t -> Vfs.file -> from_page:int -> pages:int -> buf:Addr.ea -> int
(** Like {!sys_file_read} but never waits: returns the number of cold
    pages, whose disk time the caller owes (a scheduler-driven process
    sleeps for [cold * disk_wait_cycles], letting other processes run —
    the multiprogrammed view). *)

val sys_file_write :
  t -> Vfs.file -> from_page:int -> pages:int -> buf:Addr.ea -> unit
(** Write user pages into the page cache (allocating frames for cold
    pages with no disk wait — write-behind is assumed). *)

(** {1 Flushing (exposed for experiments and tests)} *)

val flush_range : t -> mm:Mm.t -> ea:Addr.ea -> pages:int -> unit
(** Apply the policy's range-flush strategy: precise per-page TLB+htab
    scrubbing, or a whole-context VSID reset above the cutoff. *)

val flush_whole_mm : t -> mm:Mm.t -> unit

val timer_tick : t -> unit
(** One timer interrupt: entry/exit (fast or slow per policy), the
    accounting work, and — under the §10.2 preload policy — prefetches
    for the interrupted context's hot lines.  Fires automatically every
    {!Kparams.timer_tick_cycles} at operation boundaries (syscalls, user
    references, idle turns); exposed for tests. *)

(** {1 Idle task} *)

val idle_slice : t -> unit
(** One unit of idle work: a zombie-reclaim chunk and/or one page
    cleared, else the bare idle loop. *)

val idle_for : t -> cycles:int -> unit
(** Run the idle task until [cycles] have elapsed. *)

(** {1 Measurement helpers} *)

val kernel_tlb_entries : t -> int
(** TLB entries currently holding kernel translations (§5.1). *)

val htab_occupancy : t -> int
(** Valid PTEs in the htab (0 when the htab is eliminated). *)

val htab_live_and_zombie : t -> int * int
(** Valid PTEs split into (live, zombie) by VSID liveness. *)

val disk_wait_cycles : int
(** Simulated disk latency for a cold page-cache fill. *)
