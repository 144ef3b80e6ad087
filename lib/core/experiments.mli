(** The reproduction experiments as a library.

    Every table and measured claim of the paper is a function here
    returning a structured {!table} (title, header, rows, notes), so the
    results can be consumed programmatically — [mmu_sim experiment]
    prints them, tests probe them, and downstream users can rerun any
    experiment against their own policies.

    All experiments are deterministic in [seed] (default 42).  Each boots
    its own kernel(s); expect hundreds of milliseconds to a few seconds
    of real time per call (the kbuild-based ones are the slow ones). *)

type table = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val print : table -> unit
(** Render with {!Report.section}/{!Report.table}. *)

val to_csv : table -> string
(** The same table as CSV (header row first; cells quoted as needed). *)

val to_json : ?id:string -> ?section:string -> ?what:string -> table -> Json.t
(** The same table as JSON ([title]/[header]/[rows]/[notes], plus the
    optional registry metadata when given).  Inverse of {!of_json}. *)

val of_json : Json.t -> (table, string) result
(** Decode a table from {!to_json}'s representation (extra fields such
    as ["id"] are ignored; ["notes"] may be absent). *)

(** {1 The paper's tables} *)

val table1 : ?seed:int -> unit -> table
(** Table 1: LmBench summary for direct (no-htab) TLB reloads, with the
    paper's values inline (measured/paper cells). *)

val table2 : ?seed:int -> unit -> table
(** Table 2: LmBench summary for tunable TLB range flushing. *)

val table3 : ?seed:int -> unit -> table
(** Table 3: the OS comparison (Linux/PPC optimized and unoptimized vs
    the Rhapsody/MkLinux/AIX personalities). *)

(** {1 In-text experiments} *)

val e1 : ?seed:int -> unit -> table
(** §5.1: BAT-mapping the kernel (TLB misses, htab misses, kernel TLB
    share, compile time). *)

val e2 : ?seed:int -> unit -> table
(** §5.2: VSID scatter vs htab hot spots. *)

type vsid_score = {
  multiplier : int;
  full_ptegs : int;  (** PTEGs at 8/8 valid: the hot-spot count *)
  evictions : int;  (** overflow evictions the workload suffered *)
  occupancy_pct : float;  (** htab use achieved *)
  hit_rate : float;  (** htab hit rate on TLB misses *)
}

val vsid_score : ?procs:int -> ?pages:int -> ?seed:int -> int -> vsid_score
(** The measurement behind {!e2} and EX3: boot a baseline kernel
    whose only varied policy is the VSID multiplier, run [procs]
    identical-layout processes over [pages]-page working sets (defaults
    20 x 320 on the 604/185) and score the htab histogram it leaves. *)

val vsid_sweep :
  ?procs:int -> ?pages:int -> ?seed:int -> int list -> table
(** §5.2's method, rerun: score each candidate multiplier with
    {!vsid_score} and rank them, fewest full PTEGs then fewest evictions
    first.  EX3 is this sweep over 11 candidates at the E2
    configuration; it runs by name only ({!find}), not in {!registry}. *)

val e3 : ?seed:int -> unit -> table
(** §6.1: fast reload handlers (context switch, pipe latency idle and
    loaded, user wall-clock). *)

val e6 : ?seed:int -> unit -> table
(** §7: idle-task zombie reclaim (evict ratio, occupancy, hit rate). *)

val e7 : ?seed:int -> unit -> table
(** §9: the four page-clearing designs. *)

val e8 : ?seed:int -> unit -> table
(** §8 ablation: cache-inhibited page-table references. *)

val e10 : ?seed:int -> unit -> table
(** §7: the range-flush cutoff sweep (the 20-page knee). *)

(** {1 Proposals, future work and extras} *)

val e11 : ?seed:int -> unit -> table
(** §5.1 proposal, implemented: the per-process frame-buffer BAT. *)

val e12 : ?seed:int -> unit -> table
(** §10.1 future work: locking the caches during the idle task. *)

val e13 : ?seed:int -> unit -> table
(** §10.2 future work: context-switch cache preloads. *)

val e14 : ?seed:int -> unit -> table
(** §1's headline on the multiuser mix. *)

val e15 : ?seed:int -> unit -> table
(** §7's sizing remark: the hash-table size sweep. *)

val e16 : ?seed:int -> unit -> table
(** §7 ablation: replacement policies vs the idle reclaim. *)

val ex1 : ?seed:int -> unit -> table
(** Extra: LmBench across all modeled processors (601 through 750). *)

val ex2 : ?seed:int -> unit -> table
(** Extra: parallel make under the scheduler (I/O overlap vs -jN). *)

val ex4 : ?seed:int -> unit -> table
(** Extra: lat_ctx's working-set sweep — context-switch cost vs the
    footprint each process re-touches, on a 603 (128-entry TLB) and a
    604 (256), showing where TLB reach runs out. *)

val ex5 : ?seed:int -> unit -> table
(** Extra: the §10 methodology itself — the optimization ladder applied
    one step at a time on the multiuser mix, cumulative gains shown
    (and, as the paper warns, the steps do not sum). *)

val ex6 : ?seed:int -> unit -> table
(** Extra: the §4 methodology — key conclusions re-measured across five
    seeds (the simulation's analogue of the paper's 10+ averaged runs),
    reported as min/mean/max. *)

val ex7 : ?seed:int -> unit -> table
(** Extra: keystroke wake-to-done latency while a compile runs — the
    interactive-feel measurement, unoptimized vs optimized kernels. *)

val e20 : ?seed:int -> unit -> table
(** Long horizon (ROADMAP item 3): the fork/exec server driven across
    the 20-bit context-counter wrap.  The counter is pre-aged
    ({!Kernel_sim.Kernel.age_address_spaces}) to [ctx_space - requests]
    ids so the wrap — and its flush-everything escape hatch — fires near
    the midpoint of the run at any requested length.  Request count
    comes from {!Workloads.Server.boot_requests} (the [--requests]
    knob); not part of {!registry}. *)

val d1 : ?seed:int -> unit -> table
(** Diagnostic: fork/COW/exec flush stress.  Concentrates the
    translation sequences a skipped TLB invalidate corrupts under the
    BAT + precise-flush policy where nothing else masks a stale entry;
    run under [--shadow] with [MMU_SIM_BUG=stale-tlb] it proves the
    shadow checker fails loudly.  Not part of {!registry}. *)

(** {1 The registry}

    Every experiment as a first-class entry: id, short name, the paper
    section it reproduces, a one-line description, and the function.
    The CLI, the parallel {!Runner}, perfbench's [sweep] and
    [docs/EXPERIMENTS_GUIDE.md] are all driven from this list. *)

type spec = {
  id : string;  (** "T1".."T3", "E1".."E20", "EX1".."EX7", "D1", "D2" *)
  name : string;  (** short human title, without the id *)
  section : string;  (** paper section, e.g. "sec 5.1", or "extra" *)
  what : string;  (** one-line description of what it measures *)
  run : ?seed:int -> unit -> table;
}

val registry : spec list
(** All experiments in canonical (paper) order. *)

val diagnostics : spec list
(** Diagnostic workloads ({!d1}): runnable by name, excluded from
    default sweeps so results documents and baselines are unchanged. *)

val long_horizon : spec list
(** Long-horizon runs ({!e20}): runnable by name, excluded from default
    sweeps and baselines — their request counts come from the
    [--requests] knob, so their tables are only comparable at a stated
    count. *)

val runnable : spec list
(** Every spec {!find} searches: [registry @ diagnostics @ long_horizon]
    and EX3, the §5.2 multiplier sweep ({!vsid_sweep}), which is
    excluded from default sweeps and baselines. *)

val check_unique : spec list -> unit
(** Reject duplicate experiment ids (case-insensitively, since {!find}
    is case-insensitive).  Runs over {!runnable} at module load, so a
    drafting slip like the historical E15-E17 double-booking fails the
    build instead of silently shadowing an experiment.
    @raise Invalid_argument naming both colliding ids. *)

val find : string -> spec option
(** Look up by id, case-insensitively, in {!runnable}. *)

val all : (string * (?seed:int -> unit -> table)) list
(** [registry] as (id, run) pairs — the shape perfbench's [sweep] and the
    {!Runner} consume. *)
