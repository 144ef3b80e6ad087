(** Cycle cost constants for the MMU paths.

    The fixed costs are the ones the paper reports from measurement:

    - a 603 software TLB-miss trap costs 32 cycles just to invoke and
      return from the handler;
    - a 604 hardware table search costs up to 120 cycles and 16 memory
      accesses (we charge a fixed overhead plus the actual memory-access
      costs so short searches are cheaper, long ones approach 120);
    - a 604 hash-table-miss interrupt adds at least 91 cycles before the
      software handler runs.

    Path lengths for the two generations of handler code (original C
    handlers vs the hand-scheduled assembly of §6.1) are also defined
    here; which one a simulation uses is a kernel-configuration choice.
    Kernel-proper path lengths (syscall entry, scheduler, ...) live in the
    kernel simulator, not here. *)

val cache_hit_cycles : int
(** Cycles for a memory reference that hits in L1 (1). *)

val tlb_miss_trap_cycles : int
(** 603: invoke + return overhead of the software TLB-miss handler (32). *)

val htab_miss_trap_cycles : int
(** 604: interrupt overhead when the hardware search misses (91). *)

val hw_search_overhead_cycles : int
(** 604: hardware table-search overhead excluding its memory accesses;
    chosen so a full double-PTEG search with cold PTEs approaches the
    measured 120 cycles. *)

val sw_reload_fast_instr : int
(** Instructions in the hand-optimized assembly TLB reload handler (§6.1):
    uses only the four swapped registers, three loads worst case. *)

val sw_hash_setup_instr : int
(** Extra instructions the software TLB-miss handler needs to emulate the
    604's hash-table search on a 603: computing the primary/secondary
    hash and forming PTEG addresses — the "level of indirection" §6.2
    removes. *)

val sw_reload_slow_instr : int
(** Instructions in the original C reload handler. *)

val sw_reload_slow_stack_refs : int
(** Extra state save/restore memory references of the C handler. *)

val htab_insert_fast_instr : int
(** Instructions to place a PTE into the htab, optimized path. *)

val htab_insert_slow_instr : int
(** Instructions to place a PTE into the htab, original C path. *)

val htab_insert_slow_stack_refs : int
(** Extra state save/restore memory references of the C insert path. *)

val ipi_send_cycles : int
(** Cycles for the shootdown initiator to post one IPI (interrupt
    controller write + ordering). *)

val ipi_ack_wait_cycles : int
(** Cycles the initiator spins waiting for one remote acknowledgement. *)

val ipi_handler_instr : int
(** Instructions of the remote external-interrupt handler around the
    invalidate itself (entry, decode, ack, rfi). *)

val dcbz_cycles : int
(** Cycles for a [dcbz] (data cache block zero): the line is allocated
    and zeroed in the cache with {e no} memory fetch — fast, but it
    evicts whatever lived there.  This is how the kernel's [clear_page]
    zeroes frames (§9 notes the authors avoided dcbz for user [bzero]
    because of exactly this pollution). *)

val prefetch_cycles : int
(** Cycles to issue a software prefetch hint (the fill overlaps
    execution). *)

val zombie_check_instr : int
(** Instructions to run VSID-liveness checks over an overflowing PTEG
    pair during a reload — the in-line cost of the zombie-aware
    replacement the paper rejected in favour of idle-time reclaim. *)

val us_of_cycles : mhz:int -> int -> float
(** [us_of_cycles ~mhz c] converts a cycle count to microseconds. *)

val mb_per_s : bytes:int -> mhz:int -> cycles:int -> float
(** [mb_per_s ~bytes ~mhz ~cycles] is throughput in MB/s (decimal MB, as
    LmBench reports). *)
