(** A parallel make, scheduled for real.

    The other workloads drive context switches explicitly; this one runs
    compile jobs as {!Kernel_sim.Sched} processes: each job sleeps on its
    cold source-file reads, and while it sleeps the scheduler runs
    whichever other job is ready — disk latency overlaps with
    computation, exactly the multiprogrammed behaviour §9 leans on ("a
    lot of I/O happens that must be waited for").  Sweeping the jobserver
    width shows the wall-clock benefit of that overlap and where it
    saturates (experiment EX2). *)

module Kernel = Kernel_sim.Kernel

type params = {
  jobs : int;           (** total compile jobs *)
  jobserver : int;      (** concurrent jobs ("make -jN") *)
  text_pages : int;
  data_pages : int;
  source_pages : int;   (** cold source file per job *)
  compute_rounds : int;
}

val default_params : params
(** 12 jobs at -j2. *)

type result = {
  perf : Ppc.Perf.t;
  wall_us : float;
  busy_us : float;
  idle_fraction : float;  (** wall-clock share spent in the idle task *)
}

val run : Kernel.t -> params:params -> unit

val measure :
  machine:Ppc.Machine.t ->
  policy:Kernel_sim.Policy.t ->
  params:params ->
  ?seed:int ->
  unit ->
  result
