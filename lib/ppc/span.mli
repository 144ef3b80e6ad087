(** Request-level spans: per-request lifecycles and critical-path cost.

    {!Trace} records what happened and {!Profile} maintains who is
    responsible; this layer follows individual {e requests} through a
    server-shaped workload.  One handle per simulated machine (owned by
    {!Memsys}) records, for every request the workload begins:

    - its {e lifecycle}: arrival cycle (which may predate service, so
      queueing delay is part of latency) and completion cycle;
    - its {e critical-path components}: syscall entry/exit windows, run
      slices, and every TLB-miss reload, htab-missing reload and context
      switch serviced while the machine was working on its behalf;
    - per-class (service model x request kind) and overall completion
      latency {!Hist}s, from which tail percentiles and SLO verdicts are
      derived.

    Recording is observation only: it never costs cycles, touches the
    caches or draws from an RNG, so a span-recorded run produces exactly
    the Perf counts of a bare run at the same seed.  When disabled (the
    default) the cost is one flag check per instrumented site and zero
    allocation; when enabled, request storage lives in preallocated
    growable parallel int arrays.

    Ownership flows through the scheduler: the workload binds the pid
    serving a request ({!bind_pid}), and every context switch rebinds
    the {e current request} from the incoming pid — so MMU- and
    kernel-level charges land on the request the CPU is actually
    serving.  Component costs overlap by design (a reload taken inside a
    syscall is charged to both the reload and the syscall window); they
    are a breakdown of where the latency went, not a partition.

    The exporters (JSON under [observability.spans], Perfetto tracks,
    slowest-request tables) live in [Mmu_tricks.Span_export], which
    depends on this module, not the other way around. *)

type t

val create : perf:Perf.t -> t
(** A disabled recorder stamping cycles from [perf]. *)

val enable : t -> unit
(** Start recording, with room for 1024 requests (the per-request arrays
    grow by doubling).  Resets any previously recorded data. *)

val enabled : t -> bool

val set_label : t -> string -> unit
(** Tag the recorder with the configuration it is watching (exporters
    group per-config results by this). *)

val label : t -> string

(** {1 Request classes}

    A class is (service model x request kind); the workload names them
    once per run and tags each request with its class index. *)

val set_classes : t -> string array -> unit
(** Install the class-name table and create one latency {!Hist} per
    class.  Call after {!enable} (or under a {!Boot} configuration that
    arms spans). *)

val class_names : t -> string array
val class_name : t -> int -> string
(** Falls back to ["class_<i>"] for an unregistered index. *)

val class_hist : t -> int -> Hist.t option

(** {1 Request lifecycle} — driven by the workload *)

val request_begin : t -> cls:int -> arrival:int -> int
(** Open a request of class [cls] that arrived at cycle [arrival]
    (allowed to be earlier than now: queueing delay counts).  Returns
    the request id, or [-1] when disabled — every other call accepts
    that id and does nothing. *)

val request_end : t -> int -> unit
(** Complete a request: stamps the finish cycle and observes
    [finish - arrival] in the class and overall latency histograms.
    Idempotent; ignores [-1]. *)

val bind_pid : t -> pid:int -> rid:int -> unit
(** Declare that task [pid] is serving request [rid] ([-1] unbinds):
    the next context switch to [pid] makes [rid] the current request. *)

val set_current_request : t -> int -> unit
(** Make [rid] the current request immediately — for service that
    continues in the already-running task, where no context switch will
    perform the rebinding. *)

val current_request : t -> int
(** The request the running code is serving; [-1] = none. *)

(** {1 Attribution hooks} — wired into {!Mmu} and the kernel; all
    observation-only and one flag check when disabled *)

val note_context_switch : t -> pid:int -> cost:int -> unit
(** A context switch to [pid] completed, costing [cost] cycles: rebind
    the current request from [pid] and charge the switch to it. *)

val syscall_begin : t -> unit
(** The current request entered the kernel; stamps the entry cycle. *)

val syscall_end : t -> unit
(** The matching syscall return: charges the whole window (entry to
    exit, including any faults and idle waits inside) to the current
    request's syscall cost. *)

val charge_reload : t -> cost:int -> htab_missed:bool -> unit
(** One TLB-miss reload costing [cost] cycles was serviced for the
    current request; [htab_missed] additionally charges it to the
    htab-miss account (a subset, as in {!Profile}). *)

val note_run : t -> cost:int -> unit
(** [cost] cycles of user run slice executed for the current request. *)

(** {1 Inspection} *)

type request = {
  q_rid : int;
  q_cls : int;
  q_arrival : int;
  q_finish : int;  (** -1 while in flight *)
  q_latency : int;  (** [finish - arrival]; -1 while in flight *)
  q_syscalls : int;
  q_syscall_cost : int;
  q_reloads : int;
  q_reload_cost : int;
  q_htab_misses : int;
  q_htab_cost : int;
  q_ctxsw : int;
  q_ctxsw_cost : int;
  q_run_cost : int;
}

type totals = {
  t_syscalls : int;
  t_syscall_cost : int;
  t_reloads : int;
  t_reload_cost : int;
  t_htab_misses : int;
  t_htab_cost : int;
  t_ctxsw : int;
  t_ctxsw_cost : int;
  t_run_cost : int;
}

val requests : t -> int
(** Requests ever begun. *)

val completed : t -> int

val request : t -> int -> request
(** @raise Invalid_argument on an out-of-range id. *)

val iter : t -> (request -> unit) -> unit
(** All requests in id (begin) order. *)

val slowest : t -> top:int -> request list
(** The [top] slowest completed requests, highest latency first
    (request id breaks ties, so the order is deterministic). *)

val totals : t -> totals
(** Component sums across every request. *)

val hist_latency : t -> Hist.t
(** Completion latency across all classes. *)
