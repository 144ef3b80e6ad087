(** Physically-indexed set-associative L1 cache with write-back.

    Models the 603's 16K and the 604's 32K four-way caches with 32-byte
    lines.  Lines are written back: a store marks its line dirty, and
    evicting a dirty line costs a memory write that the {!Memsys} layer
    charges.  Accesses are classified so experiments can attribute cache
    pollution to its source (§8: page-table and hash-table references
    creating useless entries; §9: idle-task page clearing evicting live
    data).  Cache-inhibited accesses bypass the cache entirely and never
    allocate — the WIMG I-bit behaviour that makes uncached page clearing
    harmless.

    The cache can be {e locked} (§10.1's future-work proposal): while
    locked, hits behave normally but misses do not allocate, so the
    current contents cannot be displaced — what the paper suggests doing
    for the idle task.

    Two run primitives simulate several references in one call and leave
    exactly the state the single calls would: {!access_run}, [n]
    references to one line with one set lookup (the PTE reads of §8,
    four to a line), and {!zero_lines}, a page clear's consecutive
    [dcbz]s (§9). *)

(** Who performed an access; used only for attribution counters. *)
type source =
  | User
      (** workload loads/stores/fetches *)
  | Kernel
      (** kernel text/data/stack references *)
  | Page_table
      (** Linux two-level page-table walks *)
  | Htab
      (** hashed-page-table searches and inserts *)
  | Idle_clear
      (** page clearing performed by the idle task *)

val n_sources : int

val source_index : source -> int

(** Outcome of one reference. [dirty_writeback] is set when the access
    displaced a modified line, which costs a memory write. *)
type result =
  | Hit
  | Miss of { dirty_writeback : bool }
  | Bypass  (** cache-inhibited, or a locked-cache miss: no allocation *)

type t

val create : bytes:int -> ways:int -> t
(** [create ~bytes ~ways] builds an empty cache with 32-byte lines.
    [bytes / 32 / ways] must be a power of two. *)

val capacity_lines : t -> int

val access : t -> source:source -> inhibited:bool -> write:bool -> Addr.pa -> result
(** [access t ~source ~inhibited ~write pa] performs one reference to the
    line containing [pa]: LRU lookup/refresh on hit (marking dirty when
    [write]), allocation on miss, nothing on bypass. *)

val allocate_zero : t -> source:source -> Addr.pa -> result
(** [allocate_zero t ~source pa] is [dcbz]: establish the line zeroed and
    dirty {e without} fetching it from memory.  Returns [Miss] (with any
    write-back) when the line was newly allocated, [Hit] if it was
    already resident (now dirtied).  Respects the lock: a locked cache
    turns a non-resident dcbz into [Bypass] (the real instruction would
    stall to memory). *)

val access_run :
  t -> source:source -> inhibited:bool -> write:bool -> Addr.pa -> int -> result
(** [access_run t ~source ~inhibited ~write pa n] is [n >= 1] calls of
    [access t ~source ~inhibited ~write pa] with one set lookup, and
    returns the first call's result: the other [n - 1] are hits after a
    hit or a fill and bypasses after a bypass.  Cache state ends where
    the [n] calls leave it: the tick advances by [n] (by none when
    [inhibited]), the line's stamp is the last of those ticks, and the
    allocation and eviction counters move once, on a fill. *)

val zero_lines : t -> source:source -> Addr.pa -> lines:int -> int
(** [zero_lines t ~source pa ~lines] is {!allocate_zero} on [lines]
    consecutive lines from the one holding [pa], leaving the state the
    [lines] calls leave.  Returns how many of them went to memory: fills
    that wrote back a dirty victim in an unlocked cache, and non-resident
    lines (each a [Bypass]) in a locked one, which fills nothing. *)

val contains : t -> Addr.pa -> bool
(** [contains t pa] — does the line holding [pa] currently reside in the
    cache (no LRU side effect)? *)

val set_locked : t -> bool -> unit
(** §10.1: while locked, misses do not allocate (reported as [Bypass]). *)

val is_locked : t -> bool

val invalidate_all : t -> unit
(** Flush the whole cache (contents dropped, no write-backs charged). *)

val occupancy : t -> int
(** Valid lines. *)

val dirty_lines : t -> int

val stats_allocations : t -> source -> int
(** Lines allocated (misses filled) on behalf of [source] since
    creation. *)

val stats_evictions_caused_by : t -> source -> int
(** Valid lines evicted by allocations on behalf of [source] — the
    pollution measure of §8/§9. *)
