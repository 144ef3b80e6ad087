(** The translation engine: BATs, TLBs, hashed page table and reload paths.

    Every access first tries block address translation; a BAT hit bypasses
    the page machinery entirely.  Otherwise the segment register supplies
    the VSID, the split TLBs are consulted, and a miss triggers the
    machine's reload mechanism:

    - {b 604 (hardware search)}: the hardware searches both PTEGs of the
      htab (its PTE reads go through the data cache — the pollution of
      §8).  On a hash-table miss a 91-cycle interrupt runs the software
      fill: walk the Linux page tables, place the PTE into the htab
      (possibly displacing a valid entry), and retry.
    - {b 603 with htab} ("emulating the 604", the pre-§6.2 code): a
      32-cycle trap runs a software htab search, falling through to the
      same software fill on a miss.
    - {b 603 without htab} (§6.2, "improving hash tables away"): the trap
      handler walks the Linux PTE tree directly — three loads worst case —
      and reloads the TLB; no htab exists at all.

    The handlers come in two generations ({e fast}: the hand-scheduled
    assembly of §6.1 using only the swapped registers; {e slow}: the
    original C handlers with state save/restore), selected by [knobs].

    The reload mechanisms are pluggable backends: {!Reload_engine}
    selects one from the machine and the [use_htab] knob, and a single
    generic reload sequence here is driven by the backend's declarative
    cost row.  A {!Shadow} checker can be attached to cross-validate
    every access against the reference translator (BATs + backing page
    tables, no caches, no costs) from which {!probe} is also derived.

    The engine knows nothing about processes: the kernel supplies a
    [backing] walker resolving an effective address against the current
    address space, a VSID-liveness predicate for zombie accounting, and
    programs segments/BATs. *)

(** Reload-path configuration (the §6 optimizations). *)
type knobs = {
  use_htab : bool;
      (** on a software-reload machine, search the htab before the page
          tables (604 emulation).  Ignored (forced true) on hardware-reload
          machines, which cannot bypass the htab. *)
  fast_reload : bool;
      (** hand-optimized assembly handlers vs original C handlers. *)
  cache_inhibit_pagetables : bool;
      (** §8: make page-table and htab references cache-inhibited so
          reloads do not pollute the data cache. *)
  htab_replacement : [ `Arbitrary | `Second_chance | `Zombie_aware ];
      (** victim selection on htab overflow: the paper's arbitrary
          choice, R-bit second chance, or the rejected design that
          checks VSID liveness in the reload path ([`Zombie_aware],
          which also pays {!Cost.zombie_check_instr} per eviction). *)
  tlb_replacement : Tlb.replacement;
      (** victim selection on TLB set overflow; {!Tlb.Lru} is the
          hardware's behavior, the alternatives are policy ablations. *)
}

val default_knobs : knobs
(** htab in use, fast handlers, cacheable page tables, arbitrary htab
    replacement, LRU TLB replacement. *)

val pack : rpn:int -> writable:bool -> inhibited:bool -> int
(** A translation as one immediate: [rpn lsl 3 lor writable lor
    inhibited], with [writable] = 2 and [inhibited] = 1.  Bit 2 is
    clear.  [-1] stands for "no translation". *)

type backing = { walk : on_ref:(Addr.pa -> unit) -> Addr.ea -> int }
(** The kernel-provided resolver for the {e current} address space.
    [walk ~on_ref ea] calls [on_ref] with the physical address of every
    page-table entry it loads, in order (at most 3 on the Linux
    two-level tree), and returns the translation as {!pack} builds it,
    or [-1] when [ea] is unmapped.  The reload path drives those loads
    through the data cache; the reference translator passes a no-op. *)

type access_kind =
  | Fetch
  | Load
  | Store

type access_result =
  | Ok of Addr.pa
  | Fault  (** no translation (or a store to a read-only page): the caller
               must service the fault and retry *)

type t

val create :
  ?htab_base_pa:Addr.pa ->
  ?cpus:int ->
  machine:Machine.t ->
  memsys:Memsys.t ->
  knobs:knobs ->
  backing:backing ->
  rng:Rng.t ->
  unit ->
  t
(** Builds segments, BAT banks, TLBs and (unless a software-reload machine
    with [use_htab = false]) the hashed page table, located at
    [htab_base_pa] in physical memory.

    [cpus] (default 1) builds that many per-CPU segment files, BAT banks
    and split TLB pairs behind the one shared memory system and htab;
    {!set_cpu} selects whose structures the access path uses.  At
    [cpus = 1] every path is byte-identical to the single-CPU engine.
    @raise Invalid_argument when [cpus < 1]. *)

val machine : t -> Machine.t
val memsys : t -> Memsys.t
val knobs : t -> knobs

val engine : t -> Reload_engine.t
(** The reload backend selected at {!create} time. *)

val segments : t -> Segment.t
val ibat : t -> Bat.t
val dbat : t -> Bat.t
val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t
(** The {e current} CPU's structures (CPU 0 until {!set_cpu}). *)

val n_cpus : t -> int

val cur_cpu : t -> int
(** The CPU whose segments/BATs/TLBs the access path currently uses. *)

val set_cpu : t -> int -> unit
(** Swap the access path onto another CPU's segment file, BAT banks and
    TLBs.  Pure bookkeeping — no cost is charged (the kernel charges
    context-switch work where it belongs).
    @raise Invalid_argument for an out-of-range CPU. *)

val segments_of : t -> cpu:int -> Segment.t
val ibat_of : t -> cpu:int -> Bat.t
val dbat_of : t -> cpu:int -> Bat.t
(** A specific CPU's structures, current or not — boot programs every
    CPU's kernel segments and BATs through these. *)

val cpu_itlb_misses : t -> cpu:int -> int
val cpu_dtlb_misses : t -> cpu:int -> int
(** Per-CPU slices of the shared [itlb_misses]/[dtlb_misses] totals. *)

val htab : t -> Htab.t option
(** [None] exactly when the htab has been "improved away" (§6.2). *)

val set_backing : t -> backing -> unit
(** Replace the walker (the kernel does this as [current] changes, or
    installs one dispatching on [current] itself). *)

val set_vsid_is_zombie : t -> (int -> bool) -> unit
(** Install the liveness predicate used to classify htab eviction victims
    and to drive idle reclaim. *)

val set_vsid_is_kernel : t -> (int -> bool) -> unit
(** Install the kernel-ownership predicate the attribution profiler's
    TLB slot census classifies entries with (defaults to
    [fun _ -> false]: everything counts as user until the kernel
    identifies its VSIDs). *)

val access : t -> access_kind -> Addr.ea -> access_result
(** [access t kind ea] translates and performs one reference, charging all
    costs (trap overheads, handler path lengths, table-search and
    page-walk cache traffic, and the final data/instruction reference). *)

val access_pa : t -> access_kind -> Addr.ea -> int
(** {!access} returning the physical address directly, or [-1] on a
    fault.  This is the allocation-free form every access loop in the
    simulator uses: on a TLB hit, or a TLB miss the htab serves, with no
    shadow attached, nothing is built on the heap.  [access] is a thin
    wrapper around it that only the tests call. *)

val probe : t -> access_kind -> Addr.ea -> Addr.pa option
(** [probe t kind ea] is the translation the architecture defines for
    [ea], computed with {e no} cost charging and {e no} state mutation —
    the test oracle.  Returns [None] when the access would fault.
    Derived from {!reference_outcome}, so it cannot disagree with the
    shadow checker: stale TLB or htab contents never leak into a probe. *)

val reference_outcome : t -> access_kind -> Addr.ea -> Shadow.outcome
(** The reference translator: resolve [ea] against the architectural
    state only (BAT registers, then the backing page-table walk),
    applying the same store-to-read-only protection rule as [access].
    Cache-free, cost-free, mutation-free. *)

val attach_shadow : t -> Shadow.t -> unit
(** Cross-validate every subsequent [access] against
    {!reference_outcome}, recording divergences in the checker. *)

val shadow : t -> Shadow.t option

val set_pid : t -> int -> unit
(** Name the task now running on the current CPU (0 = kernel/idle); the
    kernel calls this on every context switch and CPU change.  Trace
    events, profiler accounts and shadow reports from the MMU are
    attributed to it. *)

val pid : t -> int

val flush_page : t -> Addr.ea -> unit
(** Precise per-page flush for the {e current} segment contents: [tlbie]
    on both TLBs plus an htab search-and-invalidate (16 memory references
    worst case), charging costs.  Counts one [flush_pte_searches]. *)

val flush_page_for_vsid : t -> vsid:int -> Addr.ea -> unit
(** Like [flush_page] but for an explicit VSID (flushing another task's
    mappings). *)

val invalidate_tlbs : t -> unit
(** Drop every TLB entry on the {e current} CPU (cost-free bookkeeping;
    used at boot). *)

val shootdown_page : t -> vsid:int -> targets:int -> Addr.ea -> unit
(** One cross-CPU TLB shootdown round for one page.  [targets] is a
    bitmask of {e remote} CPUs: for each, the initiator charges
    {!Cost.ipi_send_cycles} and spins {!Cost.ipi_ack_wait_cycles}, and
    the remote charges {!Cost.ipi_handler_instr} plus the [tlbie] before
    invalidating the page in its own TLBs — all on the shared clock.
    [targets = 0] is a complete no-op, so single-CPU runs never pay
    anything here.  Counts [tlb_shootdowns], [ipis_sent] and
    [remote_tlb_invalidates]. *)

val shootdown_range : t -> targets:int -> (int * Addr.ea) list -> unit
(** Batched cross-CPU shootdown for a whole precise-flush range: one IPI
    round covers every [(vsid, ea)] page in the list.  Each remote CPU in
    the [targets] bitmask charges {!Cost.ipi_send_cycles}, one
    {!Cost.ipi_handler_instr}, a [tlbie] per page, and one
    {!Cost.ipi_ack_wait_cycles} — versus a full round {e per page} under
    {!shootdown_page}.  Counts one [tlb_shootdowns] round, [ipis_sent]
    once per remote CPU, [remote_tlb_invalidates] per (cpu, page), and
    adds the page count to [shootdown_batch_pages].  A zero [targets] or
    empty list is a complete no-op. *)

val invalidate_all_cpus : t -> unit
(** Drop every TLB entry on {e every} CPU — the §7 escape hatch the VSID
    counter wrap fires.  Cost-free bookkeeping; the caller charges its
    path. *)

val reclaim_zombies : t -> max_ptes:int -> int
(** Idle-task zombie reclaim (§7): scan up to [max_ptes] htab slots from
    the persistent cursor, invalidating zombie PTEs; charges the scan's
    memory references.  Returns the number reclaimed; 0 when no htab. *)

val kernel_tlb_entries : t -> is_kernel_vsid:(int -> bool) -> int
(** Valid TLB entries (I+D) whose VSID satisfies the predicate — the
    kernel TLB footprint measure of §5.1. *)

val tlb_occupancy : t -> int
(** Total valid TLB entries (I+D). *)

val test_skip_tlb_invalidations : int ref
(** Test-only fault injection: while nonzero, {!flush_page_for_vsid}
    charges its costs and invalidates the htab slot but {e skips} the
    TLB invalidations, planting exactly the stale-translation bug the
    shadow checker exists to catch.  Positive values count down (skip
    the next [n] page flushes); [-1] skips all.  Leave at [0] (the
    default) for correct operation. *)

val test_skip_shootdowns : int ref
(** Test-only fault injection for SMP: while nonzero, a shootdown round
    ({!shootdown_page} or {!shootdown_range}) charges in full but
    {e skips} the remote TLB
    invalidations — the stale-remote-TLB bug class the cross-CPU shadow
    checking exists to catch.  Positive values count down (skip the next
    [n] shootdown rounds); [-1] skips all.  Leave at [0] (the default)
    for correct operation. *)
