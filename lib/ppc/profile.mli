(** Attribution profiling: who owns every miss, where the htab clusters.

    {!Trace} records what happened; this layer maintains who is
    responsible.  One handle per simulated machine (owned by {!Memsys})
    keeps three running attributions while the MMU services misses:

    - {e miss accounts}: per-(PID, segment-register index, kind) counts
      and reload-cost totals for ITLB, DTLB and htab misses, plus a
      hot-page table per kind (which 4 KB pages drew the cost);
    - a {e kernel-vs-user TLB slot census}: after every profiled reload
      the MMU reports how many TLB slots hold kernel translations — the
      §5.1 footprint claim (33% of slots without BATs, high water ≤ 4
      with them) as a measured artifact;
    - an {e htab bucket-occupancy map}: occupancy, PTEG collision-chain
      length histogram and zombie fraction over time — the §5.2
      37%/57%/75% trajectory.  It is a view of the [htab] and
      [htab_chains] gauges in {!Memsys.timeline}'s samples, the same
      samples the {!Trace} timeline reads, so the profiler itself
      samples nothing.

    Profiling is observation only: charging never costs cycles, touches
    the caches or draws from an RNG, so a profiled run produces exactly
    the Perf counts of an unprofiled run at the same seed.  When
    disabled (the default) the cost is one flag check per instrumented
    site and zero allocation.

    The exporters (folded stacks, JSON, text heatmaps) live in
    [Mmu_tricks.Profile_export], which depends on this module, not the
    other way around. *)

(** Which structure missed. [Htab_miss] charges are a subset of the TLB
    kinds: a reload that also missed the htab is charged twice, once as
    the TLB kind and once as [Htab_miss]. *)
type miss_kind =
  | Itlb
  | Dtlb
  | Htab_miss

val all_kinds : miss_kind list
val kind_name : miss_kind -> string

(** One htab occupancy sample. *)
type htab_sample = {
  h_cycle : int;     (** simulated cycle when taken *)
  h_valid : int;     (** valid PTEs *)
  h_capacity : int;  (** total PTE slots *)
  h_zombie : int;    (** valid PTEs whose VSID is no longer live *)
  h_chains : int array;
      (** [h_chains.(i)] = PTEGs holding exactly [i] valid PTEs *)
}

(** Kernel-vs-user TLB slot census summary. *)
type census = {
  n_samples : int;          (** censuses taken (one per profiled reload) *)
  avg_share_pct : float;    (** mean kernel share of occupied slots, % *)
  kernel_high_water : int;  (** most kernel-owned slots ever held *)
  kernel_now : int;         (** kernel-owned slots at the last census *)
  occupied_now : int;       (** occupied slots at the last census *)
  slot_capacity : int;      (** total TLB slots (I + D) *)
}

type t

val create : timeline:Recorder.t -> t
(** A disabled profiler whose occupancy map reads [timeline]. *)

val enable : t -> unit
(** Start attributing. *)

val enabled : t -> bool

(** {1 Hooks wired by the MMU} *)

val set_tlb_capacity : t -> int -> unit
(** Record the machine's total TLB slots (I + D) for census reporting. *)

(** {1 Charging} — call sites must guard on {!enabled}; charging is
    observation-only (no cycles, no cache traffic, no RNG) *)

val charge_miss :
  t -> pid:int -> seg:int -> page:int -> kind:miss_kind -> cost:int -> unit
(** Attribute one miss of [kind] at page-aligned EA [page] in segment
    [seg] to [pid], with [cost] reload cycles. *)

val note_tlb_census : t -> kernel:int -> occupied:int -> unit
(** Record one census: [kernel] of [occupied] valid TLB slots currently
    hold kernel translations. *)

(** {1 Inspection} *)

type attribution_row = {
  r_pid : int;
  r_seg : int;
  r_kind : miss_kind;
  r_count : int;
  r_cost : int;
}

val attribution : t -> attribution_row list
(** All accounts, ordered by (pid, segment, kind). *)

val hot_pages : t -> miss_kind -> top:int -> (int * int * int) list
(** The [top] hottest pages of one kind as [(page EA, count, cost)],
    most attributed cost first. *)

val census : t -> census
val samples : t -> htab_sample list
(** Htab occupancy samples, chronological: one per timeline-recorder
    sample; empty when the timeline was not armed or the machine has no
    htab. *)

val snapshot_htab : t -> htab_sample option
(** The htab's state right now, read through the timeline recorder's
    gauges as a pure read (nothing is recorded and no deadline moves);
    [None] when the machine has no htab.  Exporters use this for the
    end-of-run snapshot even when the timeline was never armed. *)

val total_misses : t -> int
val total_cost : t -> int
