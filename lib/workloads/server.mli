(** A server-shaped workload: requests, service models, tail latency.

    The paper's measurements are microbenchmarks and batch workloads;
    this is the production shape those optimizations serve — a request
    loop whose {e tail} latency is what an operator actually budgets.
    A dispatcher accepts a deterministic arrival process (base
    inter-arrival plus seeded jitter) and hands each request to one of
    three service models:

    - {!Fork_exec}: a fresh process per request (inetd / CGI) — fork,
      exec, serve, exit.  Maximum address-space churn: every request
      retires a context, so VSID recycling and flush policy dominate.
    - {!Pool}: pre-forked workers, each recycled after
      [worker_requests] requests (Apache's MaxRequestsPerChild) —
      steady-state switching with periodic churn.
    - {!Shared_mm}: thread-like tasks sharing the dispatcher's address
      space ({!Kernel.spawn_thread}) — switches stay in one context.

    Requests draw a kind from a weighted mix — compute, mmap churn
    (the §7 flush story on the request path), pipe echo, page-cache
    file reads (cold pages stall in the idle task) — and their
    completion latency [finish - arrival] {e includes queueing delay},
    so a config that serves slowly fattens its own tail.

    Latency histograms are recorded by the workload itself and are
    always on, so result tables are identical whether or not
    {!Ppc.Span} is armed; when spans {e are} armed the workload also
    drives the request lifecycle (classes, begin/bind/end) for
    per-request breakdowns. *)

module Kernel = Kernel_sim.Kernel

type model = Fork_exec | Pool | Shared_mm

val model_name : model -> string
(** ["fork_exec"], ["pool"], ["shared_mm"]. *)

type kind = Compute | Mmap_churn | Pipe_echo | File_read

val kind_name : kind -> string
val kinds : kind array
val kind_index : kind -> int

val class_names : model -> string array
(** Span class-name table for one run: ["<model>/<kind>"] per kind,
    indexed by {!kind_index}. *)

type params = {
  model : model;
  requests : int;        (** total requests served *)
  interarrival : int;    (** base cycles between arrivals *)
  jitter : int;          (** seeded uniform jitter added per gap *)
  pool_workers : int;    (** pool size (Pool and Shared_mm) *)
  worker_requests : int; (** Pool: recycle after this many (0: never) *)
  mix : int array;       (** kind weights, indexed by {!kind_index} *)
}

val default_params : params

val boot_requests : unit -> int
(** The request count for callers that cannot reach the params record
    (the experiment registry builds its own): the {!Ppc.Boot}
    configuration's [requests] — the CLI's [--requests] knob — else
    {!default_params}' 200, which keeps the committed baselines
    byte-identical. *)

type result = {
  perf : Ppc.Perf.t;
  wall_us : float;
  busy_us : float;
  requests : int;
  hist : Ppc.Hist.t;     (** completion latency (cycles), all requests *)
  kind_hists : (string * Ppc.Hist.t) list;  (** latency per kind *)
}

val run : Kernel.t -> params:params -> Ppc.Hist.t * (string * Ppc.Hist.t) list
(** Drive the request loop on a booted kernel; returns the latency
    histograms for callers that measure around it. *)

val measure :
  machine:Ppc.Machine.t ->
  policy:Kernel_sim.Policy.t ->
  ?params:params ->
  ?seed:int ->
  ?label:string ->
  unit ->
  result
(** Boot, run, report.  [label] tags the kernel's span recorder (when
    armed) with the configuration name exporters group by; defaults to
    {!model_name}. *)
