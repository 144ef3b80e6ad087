(** Event tracing for the simulator: what the 604's performance monitor
    could only count, this layer records as a stream.

    Three instruments share one handle (owned by {!Memsys}, one per
    simulated machine):

    - a ring buffer of typed {e events} — TLB misses and reloads, htab
      probes and evictions (with probe length and victim liveness), BAT
      hits, context switches, precise and lazy flushes, page faults,
      idle-task pre-zeroing and zombie reclaim — each stamped with the
      simulated cycle counter and the owning task's PID;
    - a {e timeline sampler} that snapshots the {!Perf} counters every N
      simulated cycles;
    - latency {!Hist} histograms of htab probe lengths, TLB-miss service
      costs and context-switch costs.

    Tracing is observation only: emitting never charges cycles, touches
    the caches or draws from an RNG, so a traced run produces exactly
    the Perf counts of an untraced run at the same seed.  When disabled
    (the default) the cost is one flag check per instrumented site and
    zero allocation; the ring storage is only allocated by {!enable}.

    The exporters (Chrome trace-event JSON, text summaries) live in
    [Mmu_tricks.Trace], which depends on this module, not the other way
    around. *)

type kind =
  | Itlb_miss        (** a = faulting EA *)
  | Dtlb_miss        (** a = faulting EA *)
  | Tlb_reload       (** a = EA, b = service cost in cycles (span) *)
  | Tlb_evict        (** a = victim VPN, b = victim VSID *)
  | Htab_probe       (** a = PTE slots examined, b = 1 hit / 0 miss *)
  | Htab_evict       (** a = victim VSID, b = 1 live / 0 zombie *)
  | Bat_hit          (** a = EA *)
  | Context_switch   (** a = incoming PID, b = switch cost (span) *)
  | Run_slice        (** scheduler slice; b = duration in cycles (span) *)
  | Idle_window      (** b = duration in cycles (span) *)
  | Flush_page       (** precise per-page flush; a = EA, b = VSID *)
  | Flush_context    (** lazy flush; a = old ctx, b = fresh ctx *)
  | Page_fault       (** a = EA, b = 0 fetch / 1 load / 2 store *)
  | Idle_prezero     (** a = RPN cleared, b = 1 kept on list / 0 discarded *)
  | Idle_reclaim     (** a = zombie PTEs reclaimed, b = slots scanned *)
  | Vma_map          (** a = start EA, b = pages *)
  | Vma_unmap        (** a = start EA, b = pages *)

val all_kinds : kind list
val kind_name : kind -> string

(** A decoded event (events are stored unboxed; this record is built on
    inspection only). *)
type event = {
  e_kind : kind;
  e_cycle : int;  (** simulated cycle at emission *)
  e_pid : int;    (** owning task PID; 0 = kernel/idle *)
  e_a : int;
  e_b : int;
}

type t = {
  perf : Perf.t;
  mutable enabled : bool;
  mutable r_kind : int array;
  mutable r_cycle : int array;
  mutable r_pid : int array;
  mutable r_a : int array;
  mutable r_b : int array;
  mutable head : int;
  kind_counts : int array;
  mutable cur_pid : int;
  mutable sample_every : int;
  mutable next_sample : int;
      (** [max_int] while sampling is off — {!Memsys} compares the cycle
          counter against this on every charge, so the disabled sampler
          costs one integer compare *)
  mutable samples_rev : (int * Perf.t) list;
  hist_probe : Hist.t;
  hist_tlb_service : Hist.t;
  hist_ctxsw : Hist.t;
}
(** Exposed so the one comparison on {!Memsys.t}'s charge path reads the
    field directly; treat as read-only outside this module and
    {!Memsys}. *)

val create : perf:Perf.t -> t
(** A disabled trace stamping events from [perf]'s cycle counter. *)

val enable : ?ring:int -> t -> unit
(** Allocate the ring ([ring] events, default 65536; oldest events are
    overwritten on wrap) and start recording. *)

val disable : t -> unit
(** Stop recording and sampling; retained events stay readable. *)

val enabled : t -> bool

val set_sampling : t -> every:int -> unit
(** Snapshot the Perf counters every [every] simulated cycles
    ([every <= 0] turns sampling off).  Sampling works even when event
    recording is disabled. *)

(** {1 Emission} — all no-ops unless {!enabled} *)

val set_current_pid : t -> int -> unit
(** Attribute subsequent {!emit}s to this task (0 = kernel/idle). *)

val current_pid : t -> int

val emit : t -> kind -> a:int -> b:int -> unit
(** Record one event stamped with the current cycle and current PID. *)

val emit_for : t -> kind -> pid:int -> a:int -> b:int -> unit
(** [emit] with an explicit owning PID. *)

val emit_htab_probe : t -> len:int -> hit:bool -> unit
(** {!Htab_probe} event plus a {!hist_probe} observation. *)

val emit_tlb_service : t -> ea:int -> cost:int -> unit
(** {!Tlb_reload} event plus a {!hist_tlb_service} observation. *)

val emit_context_switch : t -> pid:int -> cost:int -> unit
(** {!Context_switch} event plus a {!hist_ctxsw} observation. *)

(** {1 Inspection} *)

val capacity : t -> int
(** Ring capacity in events (0 until {!enable}). *)

val total : t -> int
(** Events ever emitted, including those overwritten on wrap. *)

val length : t -> int
(** Events currently held ([min total capacity]). *)

val dropped : t -> int
(** [total - length]: events lost to ring wrap. *)

val kind_count : t -> kind -> int
(** Total emitted of one kind (immune to ring wrap). *)

val iter : t -> (event -> unit) -> unit
(** Iterate retained events, oldest first. *)

val events : t -> event list
(** Retained events, oldest first. *)

val take_sample : t -> unit
(** Record one timeline sample now (called by {!Memsys} when the cycle
    counter passes [next_sample]). *)

val samples : t -> (int * Perf.t) list
(** Timeline samples as [(cycle, snapshot)], chronological. *)

val hist_probe : t -> Hist.t
val hist_tlb_service : t -> Hist.t
val hist_ctxsw : t -> Hist.t
