(** Supervised parallel experiment execution.

    Every experiment is deterministic in its seed and boots its own
    isolated kernel, so a run of the suite is embarrassingly parallel:
    fork N workers, deal the experiments round-robin, marshal each
    finished {!Experiments.table} back over a pipe, and merge in
    registry order.  The merged output is byte-identical to a serial
    run — parallelism changes wall-clock only, never results.

    The parent is a supervisor, not just a collector.  It drains the
    worker pipes with [select] under per-experiment deadlines, inspects
    every [waitpid] status, and distinguishes the ways a result can
    fail to arrive: the experiment raised ({!Failed}), the worker died
    under it ({!Crashed} with the exit status or fatal signal), it blew
    its wall-clock budget and was killed ({!Timed_out}), or the result
    stream was corrupt (a {!Failed} carrying the decode error).
    Experiments a dead worker never delivered are retried — first by
    re-forking fresh workers over just the orphaned slice, then, on the
    final attempt, serially in the parent under a SIGALRM deadline —
    within a bounded budget; outcomes recovered that way are wrapped in
    {!Retried}.

    [jobs = 1] (the default) runs in-process with no fork, so the
    runner is also the one code path the CLI uses for serial runs
    (timeouts still apply, via SIGALRM). *)

(** How a dead worker died. *)
type wstat =
  | Exited of int  (** [_exit]/[exit] with this status (never 0 here) *)
  | Signaled of int  (** fatal signal, in OCaml's [Sys] numbering *)

type outcome =
  | Done of Experiments.table
  | Failed of string
      (** the experiment raised (the exception text crossed the pipe),
          or its worker's result stream was corrupt *)
  | Crashed of wstat
      (** the hosting worker died before delivering this experiment *)
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
    which is what lets every instrument keep [--jobs N]: each worker
    drains the kernel registry and ships the digest, instead of the data
    dying with the child.  The default hook returns [None]; hook
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
    [jobs] is clamped to [1 .. length selected].  An experiment that
    raises becomes [Failed] (in-process or in a worker) rather than
    aborting the batch.

    [timeout] (seconds, default [0.] = unlimited) bounds each single
    experiment attempt: a forked worker that goes that long without
    delivering is SIGKILLed and its hung experiment reported
    {!Timed_out}; in-process attempts are aborted by SIGALRM.

    [retries] (default {!default_retries}) bounds how many times the
    undelivered experiments of a crashed, hung or corrupt worker are
    re-run — re-forked first, serially in-parent on the last attempt.
    With the budget exhausted the provisional failure ([Crashed],
    [Timed_out] or [Failed]) is returned, wrapped in {!Retried} when
    any retry was attempted. *)

val default_retries : int
(** Retry budget used when [?retries] is omitted (2: one re-fork round,
    one serial in-parent round). *)

val default_jobs : unit -> int
(** Number of online cores, probed via [getconf _NPROCESSORS_ONLN] and
    falling back to [nproc] when getconf is missing or unhelpful;
    clamped to [min_jobs .. max_jobs]; [min_jobs] when neither probe
    works. *)

val min_jobs : int
val max_jobs : int

val clamp_jobs : int -> int
(** Clamp a requested job count to [min_jobs .. max_jobs] — the single
    authority on worker-count bounds ([run] additionally never forks
    more workers than it has experiments). *)

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
