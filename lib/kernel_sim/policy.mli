(** Kernel policy knobs — one flag per optimization in the paper.

    A policy plus a machine fully determines a simulated system.  The
    unoptimized kernel of the paper's comparisons is {!baseline}; the
    final optimized kernel is {!optimized}; every experiment toggles one
    axis against one of these. *)

(** What the idle task does with free pages (§9). *)
type idle_clearing =
  | Clear_off       (** idle never clears pages *)
  | Clear_cached    (** clear through the data cache (the failed first
                        attempt: pollutes) *)
  | Clear_uncached  (** clear with caching disabled for those pages *)

type t = {
  bat_kernel_mapping : bool;
      (** §5.1: map kernel text/data (and the htab) with a BAT register
          instead of PTEs. *)
  vsid_source : Vsid_alloc.id_source;
      (** §7: PID-derived VSIDs, or the context counter, which makes
          flushing lazy: a flush retires the VSID instead of scrubbing
          TLB+htab entries. *)
  vsid_multiplier : int;
      (** §5.2: the scatter constant (1 = naive, 897 = tuned). *)
  fast_reload : bool;
      (** §6.1: hand-optimized assembly miss handlers. *)
  fast_paths : bool;
      (** optimized syscall/switch entry-exit paths (the rest of the
          "Linux/PPC" column of Table 3 vs "Unoptimized"). *)
  use_htab : bool;
      (** §6.2: on 603-style machines, keep using the htab (true) or walk
          the Linux page tables directly (false).  Ignored on 604s. *)
  flush_cutoff : int option;
      (** §7: range flushes above this many pages become whole-context
          VSID resets (requires counter VSIDs); [None] = always
          precise.  The paper settled on 20 pages. *)
  idle_zombie_reclaim : bool;
      (** §7: idle task scans the htab invalidating zombie PTEs. *)
  idle_clearing : idle_clearing;
  idle_clear_list : bool;
      (** §9: hand idle-cleared pages to [get_free_page] via the
          pre-zeroed list. *)
  cache_inhibit_pagetables : bool;
      (** §8: keep page-table and htab references out of the data
          cache. *)
  bat_framebuffer : bool;
      (** §5.1's proposal: give the frame-buffer mapping its own data BAT,
          switched per process at context-switch time, so an X server
          stops competing for TLB entries. *)
  idle_cache_lock : bool;
      (** §10.1 (future work): lock both caches while the idle task runs,
          so idle work cannot displace anyone's working set. *)
  cache_preload : bool;
      (** §10.2 (future work): issue prefetch hints for the incoming
          task's hot kernel data during a context switch. *)
  htab_replacement : [ `Arbitrary | `Second_chance | `Zombie_aware ];
      (** ablations around §7's replacement discussion: the paper's
          arbitrary victim, R-bit second chance, or the rejected design
          that checks VSID liveness during the reload itself. *)
  tlb_replacement : Ppc.Tlb.replacement;
      (** TLB victim selection: {!Ppc.Tlb.Lru} is the 603/604 hardware;
          FIFO and random are ablations for the tuner. *)
}

val baseline : t
(** The original unoptimized Linux/PPC kernel: PTE-mapped kernel, naive
    PID VSIDs, C handlers, htab in use, precise flushes, idle task does
    nothing. *)

val optimized : t
(** The final kernel: BAT-mapped kernel, scattered counter VSIDs, fast
    handlers and paths, lazy flushing with the 20-page cutoff, idle
    zombie reclaim, uncached idle page clearing feeding the pre-zeroed
    list.  ([use_htab] stays [true]; the 603-specific §6.2 configuration
    sets it to [false] explicitly.) *)

val flush_cutoff_pages : int
(** 20 — the tuned cutoff. *)

val reclaim_interval_slices : int
(** 16 — with [idle_zombie_reclaim], every 16th idle slice runs a
    reclaim scan (§7). *)

val reclaim_chunk_ptes : int
(** 64 — htab slots one reclaim scan examines (§7). *)

val prezero_list_pages : int
(** 64 — the pre-zeroed list's depth cap: idle stops clearing once this
    many pages are banked (§9). *)

val mmu_knobs : t -> Ppc.Mmu.knobs
(** The subset of the policy the MMU consumes. *)

val describe : t -> string
(** Short human-readable flag summary.  It names a [flush_cutoff] only
    under counter VSIDs: with PID-derived VSIDs every range flush is
    precise, so the cutoff has no effect and prints nothing. *)
