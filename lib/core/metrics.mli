(** Derived metrics: the ratios and rates the paper reports.

    Raw counters come from {!Ppc.Perf}; this module turns them into the
    quantities quoted in the text — TLB miss rates, htab hit rates on a
    TLB miss, the evict/reload ratio of §7, occupancy percentages, and
    cycle-to-time conversions. *)

open Ppc

val tlb_miss_rate : Perf.t -> float
(** Misses per lookup, instruction + data combined. *)

val htab_hit_rate : Perf.t -> float
(** "hit rates in the hash table on TLB misses" — hits / searches. *)

val evict_ratio : Perf.t -> float
(** "the ratio of hash table reloads to evicts (reloads that require a
    valid entry be replaced)": evicts / reloads. *)

val dcache_miss_rate : Perf.t -> float

val icache_miss_rate : Perf.t -> float

val idle_fraction : Perf.t -> float
(** Idle cycles / total cycles. *)

val wall_us : machine:Machine.t -> Perf.t -> float

val occupancy_pct : occupancy:int -> capacity:int -> float

val pct_change : from_v:float -> to_v:float -> float
(** Percentage change, negative = reduction. *)

val speedup : from_v:float -> to_v:float -> float
(** [from_v /. to_v]: how many times faster the second value is (for
    latencies). *)
