(** The boot configuration: how every kernel booted while it is set
    comes up.

    Callers that cannot reach the kernels being booted (the experiment
    registry boots its own) describe the whole run in one record instead
    of arming each instrument: {!Memsys.create} arms the instruments it
    names before the boot charges a cycle, [Kernel.boot] takes its CPU
    count and shadow checker from it, and the server experiments their
    request count.  Forked Runner workers inherit it.  The caller reads
    the armed instruments back off the kernels it collects from
    [Kernel.drain_smp_registered]. *)

type t = {
  cpus : int;  (** CPUs of a kernel booted without [?cpus] *)
  requests : int option;
      (** server-experiment request count; [None] keeps the workload's
          default *)
  trace : int;
      (** event-ring capacity of the trace, in events ([<= 0]: not
          armed; {!Trace.default_ring} is the usual size) — a size where
          {!timeline} is a cadence *)
  profile : bool;  (** attribution profiling armed *)
  timeline : int;
      (** cadence in cycles of {!Memsys.timeline}, armed with unbounded
          retention ([<= 0]: not armed).  Its samples are both the
          trace's Perf timeline and the profile's htab occupancy, so
          the two share this one cadence. *)
  spans : bool;  (** request spans armed *)
  shadow : bool;
      (** a shadow checker attached to every kernel booted without
          [?shadow] *)
  record : (int * (Recorder.t -> unit)) option;
      (** [Some (every, attach)]: flight recording armed at cadence
          [every], each recorder handed to [attach] as it is created —
          the other cadence *)
}

val plain : t
(** One CPU, the workloads' own request counts, every instrument off. *)

val current : unit -> t

val with_config : t -> (unit -> 'a) -> 'a
(** [with_config c f] runs [f] with [c] as the boot configuration and
    restores the previous one when [f] returns or raises. *)
