(** The memory system: caches + cycle accounting.

    Every simulated memory reference and instruction flows through this
    module so that cycle charges and counters stay consistent: a cache hit
    costs one cycle, a miss or a cache-inhibited access costs the
    machine's memory latency, and an instruction costs one cycle (both
    the 603 and 604 approach one instruction per cycle on hot code; stalls
    are captured by the explicit miss costs).

    The [idle] flag routes cycle charges to the idle counter as well, so
    experiments can separate idle-task work (zombie reclaim, page
    clearing) from foreground work.

    Cadence sampling has one mechanism, {!Recorder}, in two instances
    that differ only in cadence and retention: the flight {!recorder}
    and the {!timeline} whose samples the {!Trace} timeline and the
    {!Profile} occupancy map read.  Each charge tests the two deadlines
    and nothing else.

    Fused runs ({!table_run}, {!zero_lines}) simulate several charges
    in one call.  Unarmed, no sample can fire inside a charge, so they
    move every counter by the same totals with one charge; while
    {!sampling} they take the historical sequence, every counter bumped
    just before its own charge, so samples see what they always saw.

    The [_cycles] forms ({!data_ref_cycles}, {!inst_ref_cycles},
    {!instructions_cycles}, {!table_run_cycles}) do everything their
    charging form does except the charge: they touch the cache, bump
    the counters and return the cycles, for a caller that sums several
    and charges once ({!stall}).  Only an unobserved caller may, since
    a sample, event or attribution could have fallen between the
    charges it sums: [Mmu]'s TLB miss is one sequence that takes the
    charging forms while {!observed} and sums the [_cycles] forms
    otherwise.  Each reference's cost arithmetic is written once and
    both forms use it. *)

type t

val create : machine:Machine.t -> perf:Perf.t -> t
(** Caches plus the machine's instruments, the ones the current
    {!Boot} configuration names already armed. *)

val machine : t -> Machine.t
val perf : t -> Perf.t

val trace : t -> Trace.t
(** The machine's trace handle (disabled until [Trace.enable]).  Its
    Perf timeline is a view of {!timeline}. *)

val profile : t -> Profile.t
(** The machine's attribution profiler (disabled until
    [Profile.enable]).  Its htab occupancy map is a view of
    {!timeline}'s [htab] and [htab_chains] gauges. *)

val span : t -> Span.t
(** The machine's request-span recorder (disabled until [Span.enable]).
    Event-driven, not cadence-driven: the charge path never checks it,
    so the disabled cost is the flag check at each instrumented site. *)

val recorder : t -> Recorder.t
(** The machine's flight recorder (disabled until [Recorder.enable];
    the boot configuration's [record] arms it at the default cap).
    Cycle charges check its sampling deadline. *)

val timeline : t -> Recorder.t
(** The machine's timeline recorder (disabled until {!arm_timeline};
    the boot configuration's [timeline] arms it).  Same gauges as
    {!recorder}, its own cadence, and every sample kept: a second
    instance because the flight stream and the timeline documents are
    taken at different cadences ([--record-every] and
    [--sample-every]).  Cycle charges check its sampling deadline. *)

val arm_timeline : t -> every:int -> unit
(** Arm {!timeline} at cadence [every] from now with unbounded
    retention; [every <= 0] leaves it as it is. *)

val add_gauge : t -> name:string -> (unit -> int array) -> unit
(** Install a gauge source on both recorders (see
    {!Recorder.add_source}).  The "span" and "attribution" gauges are
    pre-installed here, the machine-shape gauges (htab, TLB, run
    queues) by their owners. *)

val icache : t -> Cache.t
val dcache : t -> Cache.t

val set_idle : t -> bool -> unit
(** While set, all cycles charged also count as idle cycles. *)

val data_ref :
  t -> source:Cache.source -> inhibited:bool -> write:bool -> Addr.pa -> unit
(** One data reference: drives the D-cache and charges cycles.  A store
    dirties its line; evicting a dirty line later costs a (half-latency,
    posted) write-back. *)

val data_ref_cycles :
  t -> source:Cache.source -> inhibited:bool -> write:bool -> Addr.pa -> int
(** {!data_ref} returning its cycles uncharged, a dirty victim's
    write-back included. *)

val inst_ref : t -> Addr.pa -> unit
(** One instruction fetch reference: drives the I-cache. *)

val inst_ref_cycles : t -> Addr.pa -> int
(** {!inst_ref} returning its cycles uncharged. *)

val prefetch : t -> source:Cache.source -> Addr.pa -> unit
(** One [dcbt]-style prefetch hint (§10.2): brings the line in while
    execution continues — the fill is overlapped, so only
    {!Cost.prefetch_cycles} are charged. *)

val set_cache_locked : t -> bool -> unit
(** §10.1: lock/unlock both L1 caches — while locked, misses do not
    allocate, so the contents cannot be displaced. *)

val instructions : t -> int -> unit
(** [instructions t n] charges [n] instructions at one cycle each —
    path-length accounting for code whose individual fetches are not
    simulated. *)

val instructions_cycles : t -> int -> int
(** {!instructions} returning its cycles uncharged. *)

val stall : t -> int -> unit
(** [stall t n] charges [n] raw cycles (trap overheads, fixed hardware
    costs). *)

val sampling : t -> bool
(** Whether either recorder is armed.  While true the fused charges
    and runs below take the historical charge-by-charge sequence, so
    sample timing and contents are byte-identical to the unfused calls;
    counters and cache state are identical either way. *)

val observed : t -> bool
(** Whether any instrument this module owns watches the machine: the
    event trace, the profiler, request spans, or either recorder
    ({!sampling}).  While none does, nothing reads a counter between
    two charges, so a caller may sum [_cycles] forms into one. *)

val table_run :
  t ->
  instr:int ->
  source:Cache.source ->
  inhibited:bool ->
  write:bool ->
  Addr.pa ->
  int ->
  unit
(** [table_run t ~instr ~source ~inhibited ~write pa n] is [n >= 1]
    table references to the line holding [pa] (a PTEG search reads four
    PTEs to a line), each one [mem_refs] count, [instr] instructions
    (a software probe's compare and branch; [0] for the hardware
    search) and a {!data_ref}.  Unarmed it is one call of
    {!Cache.access_run} and one charge; while {!sampling} it is the
    reference-by-reference sequence, every counter bumped just before
    its own charge. *)

val table_run_cycles :
  t ->
  instr:int ->
  source:Cache.source ->
  inhibited:bool ->
  write:bool ->
  Addr.pa ->
  int ->
  int
(** {!table_run}'s unarmed form returning its cycles uncharged. *)

val zero_lines :
  t -> source:Cache.source -> inhibited:bool -> Addr.pa -> lines:int -> unit
(** [zero_lines t ~source ~inhibited pa ~lines] clears [lines]
    consecutive lines from the one holding [pa] (§9's clear_page).
    Through the cache each line is a [dcbz]: allocate-and-zero without a
    fetch, {!Cost.dcbz_cycles} plus any dirty write-back, polluting by
    eviction (a locked cache sends a non-resident line to memory
    instead).  With [inhibited] each line is an uncached store at the
    memory latency, and the cache is untouched.  Unarmed it is one call
    of {!Cache.zero_lines} and one charge; while {!sampling}, the
    line-by-line sequence. *)

val copy_lines : t -> source:Cache.source -> src:Addr.pa -> dst:Addr.pa -> bytes:int -> unit
(** [copy_lines t ~source ~src ~dst ~bytes] models a block copy at
    cache-line granularity: one read reference per source line and one
    write reference per destination line, plus one cycle per 4-byte word
    moved. *)
