(** Measurement helpers: counter deltas around a measured region. *)

open Ppc

val region : Kernel_sim.Kernel.t -> (unit -> 'a) -> 'a * Perf.t
(** [region k f] runs [f] and returns its result with the counter deltas
    it caused: the one measured region every workload and experiment
    uses. *)

val perf : Kernel_sim.Kernel.t -> (unit -> unit) -> Perf.t
(** [perf k f] runs [f] and returns the counter deltas it caused. *)

val cycles : Kernel_sim.Kernel.t -> (unit -> unit) -> int

val us : Kernel_sim.Kernel.t -> (unit -> unit) -> float
(** Elapsed simulated microseconds of [f] at the machine's clock. *)
