(** Event tracing for the simulator: what the 604's performance monitor
    could only count, this layer records as a stream.

    Three instruments share one handle (owned by {!Memsys}, one per
    simulated machine):

    - a ring buffer of typed {e events} — TLB misses and reloads, htab
      probes and evictions (with probe length and victim liveness), BAT
      hits, context switches, precise and lazy flushes, page faults,
      idle-task pre-zeroing and zombie reclaim — each stamped with the
      simulated cycle counter and the owning task's PID, which the
      emitter names ({!Mmu.pid} for the running task);
    - the Perf {e timeline}: a view of {!Memsys.timeline}'s samples, so
      the trace itself samples nothing;
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

type t

val create : timeline:Recorder.t -> t
(** A disabled trace stamping events from [timeline]'s cycle counter;
    {!samples} reads [timeline]. *)

val default_ring : int
(** The ring capacity {!enable} allocates without [?ring]: 65536 events. *)

val enable : ?ring:int -> t -> unit
(** Allocate the ring ([ring] events, default {!default_ring}; oldest
    events are overwritten on wrap) and start recording. *)

val enabled : t -> bool

(** {1 Emission} — all no-ops unless {!enabled} *)

val emit : t -> kind -> pid:int -> a:int -> b:int -> unit
(** Record one event stamped with the current cycle and owned by task
    [pid] (0 = kernel/idle). *)

val emit_htab_probe : t -> pid:int -> len:int -> hit:bool -> unit
(** {!Htab_probe} event plus a {!hist_probe} observation. *)

val emit_tlb_service : t -> pid:int -> ea:int -> cost:int -> unit
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

val samples : t -> (int * Perf.t) list
(** The timeline recorder's samples as [(cycle, snapshot)],
    chronological; empty unless it was armed. *)

val hist_probe : t -> Hist.t
val hist_tlb_service : t -> Hist.t
val hist_ctxsw : t -> Hist.t
