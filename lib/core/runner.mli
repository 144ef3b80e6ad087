(** Supervised parallel experiment execution.

    Every experiment is deterministic in its seed and boots its own
    isolated kernel, so a run of the suite is embarrassingly parallel:
    fork one child per experiment, at most N alive at a time, start the
    next experiment whenever a child is reaped, marshal each finished
    {!Experiments.table} back over the child's pipe as one frame, and
    merge in input order.  The merged output is byte-identical to a
    serial run — parallelism changes wall-clock only, never results.

    The parent is a supervisor, not just a collector.  It reads every
    child's pipe to EOF with [select], killing a child at its deadline
    (fork time + timeout), and distinguishes the ways a result can fail
    to arrive: the experiment raised ({!Failed}), its child died under
    it ({!Crashed} with the exit status or fatal signal), it blew its
    wall-clock budget and was killed ({!Timed_out}), or its child
    exited cleanly without a complete frame ({!Failed}).  A child hosts
    one experiment, so a dead child loses only that one.  A lost
    experiment is retried within a bounded budget — re-forked while
    retries remain, and on the final attempt run in the parent under a
    SIGALRM deadline once the pool has drained; outcomes recovered that
    way are wrapped in {!Retried}.

    [jobs = 1] (the default) runs in-process with no fork, so the
    runner is also the one code path the CLI uses for serial runs
    (timeouts still apply, via SIGALRM). *)

(** How a dead child died. *)
type wstat =
  | Exited of int  (** [_exit]/[exit] with this status (never 0 here) *)
  | Signaled of int  (** fatal signal, in OCaml's [Sys] numbering *)

type outcome =
  | Done of Experiments.table
  | Failed of string
      (** the experiment raised (the exception text crossed the pipe),
          or its child exited cleanly without delivering a result *)
  | Crashed of wstat
      (** the hosting child died before delivering this experiment *)
  | Timed_out of float
      (** the experiment exceeded the wall-clock budget (seconds) and
          its host was killed / the in-process attempt aborted *)
  | Retried of int * outcome
      (** final outcome after this many retries (the payload is never
          itself [Retried]) *)

val table_of_outcome : outcome -> Experiments.table option
(** The result table, if the experiment (eventually) produced one —
    unwraps {!Retried}. *)

val describe : outcome -> string
(** One-line human rendering ("ok", "worker killed by SIGKILL",
    "timed out after 5s (after 2 retries)", ...) for failure tables. *)

val collect_hook : (string -> Json.t option) ref
(** Per-experiment payload collector, called with the experiment id in
    whatever process hosted the attempt, immediately after it finished.
    The payload rides the existing result pipe back to the supervisor,
    which is what lets every instrument keep [--jobs N]: each child
    drains the kernel registry and ships the digest, instead of the data
    dying with it.  The default hook returns [None]; hook
    exceptions are swallowed (a broken collector must not fail the
    experiment).  The hook runs after {e every} attempt, so on a retried
    experiment only the final attempt's payload survives. *)

val armed :
  ?collect:(string -> Kernel_sim.Kernel.t list -> Json.t option) ->
  Ppc.Boot.t -> (unit -> 'a) -> 'a
(** [armed ~collect boot f] runs [f] (typically one {!run_collect})
    with [boot] as the boot configuration, the kernel registry armed,
    and {!collect_hook} handing [collect] the experiment id and the
    kernels the attempt booted (default: collect nothing).  Restores
    the configuration and the hook, disarms and empties the registry
    when [f] returns or raises. *)

val run_collect :
  ?jobs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?retries:int ->
  (string * (?seed:int -> unit -> Experiments.table)) list ->
  (string * outcome * Json.t option) list
(** Like {!run}, additionally returning what {!collect_hook} produced
    for each experiment in the hosting process.  Experiments that never
    ran to completion anywhere (crashed/hung through the whole retry
    ladder) carry [None]. *)

val run :
  ?jobs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?retries:int ->
  (string * (?seed:int -> unit -> Experiments.table)) list ->
  (string * outcome) list
(** [run ~jobs ~seed ~timeout ~retries selected] executes every
    [(id, fn)] pair and returns [(id, outcome)] in the input's order
    (payloads from {!collect_hook}, if any, are dropped — use
    {!run_collect} to keep them).
    [jobs] bounds the children alive at once and is clamped to
    [1 .. length selected]; each experiment runs in a child of its own.
    An experiment that raises becomes [Failed] (in-process or in a
    child) rather than aborting the batch.

    [timeout] (seconds, default [0.] = unlimited) bounds each single
    experiment attempt: a child still running that long after it was
    forked is SIGKILLed and its experiment reported {!Timed_out};
    in-process attempts are aborted by SIGALRM.

    [retries] (default {!default_retries}) bounds how many times an
    experiment whose child crashed, hung or exited without a result is
    re-run — requeued into the pool first, serially in-parent on the
    last attempt.  With no retries the failure ([Crashed], [Timed_out]
    or [Failed]) is returned as is; otherwise the last attempt's
    outcome is, wrapped in {!Retried}. *)

val default_retries : int
(** Retry budget used when [?retries] is omitted (2: one re-forked
    attempt, then one serial in-parent attempt). *)

val default_jobs : unit -> int
(** Number of online cores, probed via [getconf _NPROCESSORS_ONLN] and
    falling back to [nproc] when getconf is missing or unhelpful;
    clamped to [min_jobs .. max_jobs]; [min_jobs] when neither probe
    works. *)

val min_jobs : int
val max_jobs : int

val clamp_jobs : int -> int
(** Clamp a requested job count to [min_jobs .. max_jobs] — the single
    authority on worker-count bounds ([run] additionally never keeps
    more children alive than it has experiments). *)

val fault_env : string
(** ["MMU_SIM_FAULT"] — deterministic fault injection for testing the
    supervision paths.  Comma-separated [kind:id] entries, applied at
    the moment experiment [id] is about to run, in whatever process
    hosts it: [kill:<id>] (host SIGKILLs itself), [exit:<id>[:n]]
    (host [_exit]s with status [n], default 3), [raise:<id>] (the
    experiment raises, a clean {!Failed}), [hang:<id>] (blocks until a
    timeout).  The supervisor disarms an experiment's faults before
    retrying it, so one injected fault exercises exactly one recovery
    round.  Beware: in a serial ([jobs = 1]) run the hosting process is
    the CLI itself, so [kill]/[exit] faults take it down — that is the
    point of the knob, not a defect. *)
