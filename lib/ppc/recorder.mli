(** The recorder: bounded-memory streaming telemetry (§5.2's
    watch-it-while-it-runs loop as infrastructure).

    Snapshots the full observability state — a {!Perf.snapshot} plus a
    set of named integer gauge vectors installed by the subsystems that
    own them (htab occupancy/chains, TLB census, per-CPU miss slices,
    run-queue depths, span percentiles-so-far) — every [every] simulated
    cycles.  {!Memsys} owns two instances with the same gauges: the
    flight recorder ([--record-every], default cap) and the timeline
    recorder ([--sample-every], unbounded), whose samples are the
    {!Trace} Perf timeline and the {!Profile} htab occupancy.

    Zero-cost when disabled: [next_sample] is [max_int], so the
    per-charge cost in {!Memsys.charge} is one integer compare.
    Observation-only when armed: no cycles charged, no RNG draws, so
    counters are byte-identical to an unrecorded run at the same seed.
    Memory-bounded: storage grows on demand up to [cap] samples; on
    overflow the recorder deterministically decimates (keeps every
    other sample, doubles the cadence), so arbitrarily long runs
    self-coarsen instead of growing.  [cap = max_int] keeps every
    sample.  Streaming consumers that want every sample at the original
    cadence hook {!set_on_sample}. *)

type sample = {
  s_cycle : int;  (** [Perf.cycles] when the sample fired *)
  s_perf : Perf.t;  (** immutable counter snapshot *)
  s_gauges : (string * int array) list;
      (** gauge vectors in source-installation order; arrays owned by
          the sample *)
}

type t = {
  perf : Perf.t;
  mutable next_sample : int;
      (** absolute cycle of the next sample; [max_int] = disabled.  Read
          directly by [Memsys.charge] — the one-int-compare contract. *)
  mutable every : int;
  mutable cap : int;
  mutable label : string;
  mutable sources : (string * (unit -> int array)) list;
  mutable samples : sample array;
  mutable len : int;
  mutable total : int;
  mutable on_sample : (t -> sample -> unit) option;
}

val default_every : int
val default_cap : int

(** {1 Lifecycle} *)

val create : perf:Perf.t -> t
(** A disabled recorder sampling [perf]. *)

val enable : ?every:int -> ?cap:int -> t -> unit
(** Start sampling every [every] simulated cycles, retaining at most
    [cap] samples (decimating beyond; [max_int] never decimates).
    Drops retained samples; storage is allocated as samples arrive.
    @raise Invalid_argument if [every < 1] or [cap < 2]. *)

val disable : t -> unit
val enabled : t -> bool

val set_label : t -> string -> unit
(** Which configuration this recorder watched (e.g. the experiment
    config name); carried into the timeline stream. *)

val label : t -> string

val every : t -> int
(** Current cadence — doubles each time the retained stream decimates. *)

val cap : t -> int

val set_on_sample : t -> (t -> sample -> unit) -> unit
(** Called after every sample is taken (before any decimation of later
    samples), with the recorder and the fresh sample — the streaming
    hook.  Must not charge cycles or touch simulator state. *)

(** {1 Gauge sources} *)

val add_source : t -> name:string -> (unit -> int array) -> unit
(** Install a named gauge vector; called only inside {!take_sample}, so
    arbitrarily expensive sources cost nothing until armed.
    Re-installing an existing name replaces the source in place without
    disturbing the gauge order. *)

val source_names : t -> string list

val gauge : t -> string -> int array option
(** The named gauge's value right now ([None] when no source has that
    name) — a pure read: nothing is recorded and the deadline is
    untouched. *)

(** {1 Sampling} *)

val take_sample : t -> unit
(** Snapshot now and schedule the next sample.  Called by
    [Memsys.charge] when [Perf.cycles] crosses [next_sample]. *)

(** {1 Inspection} *)

val length : t -> int
(** Samples currently retained (<= [cap]). *)

val total : t -> int
(** Samples ever taken, including ones decimated away. *)

val sample : t -> int -> sample
(** @raise Invalid_argument out of range. *)

val samples : t -> sample list
