(** Kernel layout and path-length constants.

    The simulated kernel mirrors the Linux/PPC layout: the kernel owns the
    virtual range [0xC0000000-0xFFFFFFFF]; its text and static data are a
    single contiguous chunk of physical memory linearly mapped at
    [0xC0000000 + physical], which is why one BAT register can cover all
    of it (§5.1).

    Path lengths are instruction counts for the kernel operations the
    benchmarks exercise.  Each has a {e fast} value (the optimized
    hand-written assembly entry/exit paths of the final kernel) and a
    {e slow} value (the original C paths of the unoptimized kernel);
    which one applies is a policy choice.  The constants were calibrated
    so that the baseline and optimized simulations land near the paper's
    measured LmBench values on the corresponding machines; the *shape* of
    every result comes from the simulated mechanism, not from these
    constants (see EXPERIMENTS.md). *)

open Ppc

(** {1 Virtual/physical layout} *)

val kernel_base : Addr.ea
(** [0xC0000000]: kernel virtual base; kernel EA = physical + this. *)

val kernel_virt_of_phys : Addr.pa -> Addr.ea
val kernel_phys_of_virt : Addr.ea -> Addr.pa

val vectors_pa : Addr.pa
(** Exception vectors + handler stack (physical, page 0 region). *)

val text_pa : Addr.pa
(** Kernel text base (physical). *)

val text_bytes : int
(** 1.25 MB of kernel text. *)

val data_pa : Addr.pa
(** Kernel static data base (physical). *)

val data_bytes : int
(** 1 MB of kernel static data. *)

val htab_pa : Addr.pa
(** Hashed page table location (128 KB for 16384 PTEs). *)

val htab_bytes : int

val reserved_bytes : int
(** Physical memory reserved for the kernel image, htab and vectors —
    never handed to the frame allocator. *)

(** {1 Kernel code footprints}

    Each kernel path fetches instructions from its own region of kernel
    text, so the paths compete for I-TLB and I-cache like the real kernel
    does.  Offsets are from [text_pa]. *)

val off_syscall : int
val off_sched : int
val off_fault : int
val off_pipe : int
val off_vfs : int
val off_mm : int
val off_idle : int
val off_exec : int

(** {1 Path lengths (instructions)} *)

val syscall_fast : int
(** Optimized syscall entry + dispatch + exit. *)

val syscall_slow : int
(** Original C syscall path with full state save/restore. *)

val syscall_slow_stack_refs : int

val switch_fast : int
(** Optimized scheduler + context switch (excluding segment loads). *)

val switch_slow : int

val switch_slow_stack_refs : int

val segment_load_cycles : int
(** Loading the 12 user segment registers on a switch. *)

val fault_service : int
(** The (C) demand-fault service path, excluding the memory references
    it performs: vma lookup, allocation bookkeeping. *)

val mmap_base_cost : int
(** mmap syscall body: vma creation, bookkeeping. *)

val mmap_per_page : int
(** Per-page cost of building the mapping metadata. *)

val munmap_base_cost : int

val munmap_per_mapped_page : int
(** Releasing one mapped page: page-table edit + frame free. *)

val fork_base : int
val fork_per_page : int
(** Copying one mapping during fork. *)

val exec_base : int

val pipe_op : int
(** Pipe read/write body excluding the data copy. *)

val read_op : int
(** File read body per syscall excluding the copy. *)

val vfs_per_page : int
(** Per-page overhead of generic_file_read (page-cache lookup, locking,
    bookkeeping). *)

val copy_cycles_per_word : int
(** Cycles per 4-byte word of bulk copy (load/store pair with its share
    of pipeline stalls). *)

val proc_exit : int

val idle_loop_slice : int
(** Instructions burned per idle-loop iteration when there is no idle
    work configured. *)

val timer_tick_cycles : int
(** Period of the scheduler timer interrupt (10 ms at 133 MHz — the
    classic HZ=100). *)

val tick_fast : int
(** Timer-interrupt entry + accounting + exit, optimized assembly
    entry (§6.1 covers "interrupt entry code" too). *)

val tick_slow : int
(** The original C interrupt path. *)

val tick_slow_stack_refs : int

val clear_page_instr : int
(** Loop overhead for clearing one 4 KB page (on top of the line
    stores). *)

val vsid_wrap_instr : int
(** Kernel bookkeeping when the 20-bit context counter wraps and the §7
    escape hatch fires (full TLB invalidate on every CPU plus an htab
    zombie purge) — on top of the purge's own memory references. *)

val steal_instr : int
(** Run-queue lock + migration bookkeeping when an idle CPU steals a
    runnable task from another CPU's queue. *)

(** {1 Kernel data objects} *)

val task_struct_ea : pid:int -> Addr.ea
(** Virtual address of a task's task_struct in kernel data. *)

val runqueue_ea : Addr.ea
val pipe_buf_ea : index:int -> Addr.ea
(** Kernel virtual address of a pipe's 4 KB buffer. *)

val kstack_ea : pid:int -> Addr.ea
(** Kernel stack area for a task. *)
