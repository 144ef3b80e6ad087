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
    - an {e htab bucket-occupancy map}, sampled on the same cadence as
      the {!Perf} timeline: occupancy, PTEG collision-chain length
      histogram and zombie fraction over time — the §5.2 37%/57%/75%
      trajectory.

    Profiling is observation only: charging never costs cycles, touches
    the caches or draws from an RNG, so a profiled run produces exactly
    the Perf counts of an unprofiled run at the same seed.  When
    disabled (the default) the cost is one flag check per instrumented
    site — plus one integer compare on {!Memsys}'s charge path for the
    occupancy sampler — and zero allocation.

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

(** One account: misses charged and reload cycles attributed to them. *)
type cell = {
  mutable a_count : int;
  mutable a_cost : int;
}

type t = {
  perf : Perf.t;
  mutable enabled : bool;
  attribution : (int, cell) Hashtbl.t;
  hot_pages : (int, cell) Hashtbl.t array;
  mutable census_samples : int;
  mutable census_share_sum : float;
  mutable census_kernel_hw : int;
  mutable census_kernel_now : int;
  mutable census_occupied_now : int;
  mutable tlb_capacity : int;
  mutable sample_every : int;
  mutable next_sample : int;
      (** [max_int] while sampling is off — {!Memsys} compares the cycle
          counter against this on every charge, so the disabled sampler
          costs one integer compare *)
  mutable samples_rev : htab_sample list;
  mutable htab_source : (unit -> htab_sample) option;
}
(** Exposed so the one comparison on {!Memsys.t}'s charge path reads
    [next_sample] directly; treat as read-only outside this module,
    {!Memsys} and {!Mmu}. *)

val create : perf:Perf.t -> t
(** A disabled profiler stamping samples from [perf]'s cycle counter. *)

val enable : ?sample_every:int -> t -> unit
(** Start attributing; [sample_every > 0] also arms the htab occupancy
    sampler at that cadence (simulated cycles). *)

val disable : t -> unit
(** Stop attributing and sampling; accumulated data stays readable. *)

val enabled : t -> bool

val set_sampling : t -> every:int -> unit
(** Re-arm or disarm ([every <= 0]) the htab occupancy sampler. *)

(** {1 Hooks wired by the MMU} *)

val set_htab_source : t -> (unit -> htab_sample) -> unit
(** Install the htab snapshot function the occupancy sampler calls. *)

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

val take_sample : t -> unit
(** Record one htab occupancy sample now (called by {!Memsys} when the
    cycle counter passes [next_sample]). *)

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
(** Htab occupancy samples, chronological. *)

val snapshot_htab : t -> htab_sample option
(** The htab's state right now, as a pure read (nothing is recorded and
    the sampling deadline is untouched); [None] when the machine has no
    htab.  Exporters use this for the end-of-run snapshot even when
    periodic sampling was never armed. *)

val total_misses : t -> int
val total_cost : t -> int
