(** The PowerPC hashed page table ("htab").

    The htab is an array of PTE groups (PTEGs) of eight entries.  A
    primary hash of (VSID, page index) selects one PTEG; its one's
    complement selects the secondary/overflow PTEG, so a full search
    examines up to 16 PTEs — the "16 memory references" the paper charges
    to every precise flush and hardware reload.

    Each entry is stored as the two words of the paper's Figure 1, two
    [int]s per slot in one flat array (16 host bytes per simulated 8-byte
    PTE; no per-entry record).  Word 0 is the search tag
    [vsid lsl 16 lor page_index] of a valid entry, and -1 for an invalid
    one.  Word 1 packs, high bits to low, RPN, H, R, C, WIMG and PP.  The
    hot paths read the words; {!decode} builds a {!Pte.t} view for tests
    and cold readers.

    The structure itself is policy-free: it reports which physical PTE
    slots an operation read so the MMU can drive them through the data
    cache, and it exposes zombie accounting hooks so the idle-task
    reclaim of §7 can be measured.  A "zombie" PTE is one whose valid bit
    is still set but whose VSID belongs to a retired memory context; the
    hardware cannot tell it from a live entry.

    {b Line runs.}  A 32-byte cache line holds four 8-byte PTEs and a
    PTEG is two lines, so reads are reported as runs: [(pa, n)] stands
    for the [n] consecutive slots from the one at [pa], with
    [1 <= n <= 4] and all [n] inside [pa]'s line, in the order the slots
    are read.  Expanding every run into [pa], [pa + 8], ... gives the
    per-slot sequence exactly.  This module defines which runs a search
    read ({!runs}, {!run_slots}, {!run_pa}); the probe itself,
    {!find_slot}, reports nothing, and {!Mmu} charges the runs it
    defines.  The free-slot and victim scans of {!insert}, the precise
    flush and the reclaim scan report theirs through [on_run];
    {!search} and {!search_counted} report slot by slot. *)

type t

val create : ?base_pa:Addr.pa -> n_ptes:int -> unit -> t
(** [create ~n_ptes ()] builds an empty table of [n_ptes] entries
    ([n_ptes / 8] PTEGs; must make a power of two).  [base_pa] locates the
    table in physical memory for cache modeling (default [0x00100000]);
    it must be PTEG-aligned (a multiple of 64), so a PTEG is exactly two
    line runs. *)

val n_ptegs : t -> int

val capacity : t -> int
(** Total PTE slots. *)

val base_pa : t -> Addr.pa

val pte_pa : t -> pteg:int -> slot:int -> Addr.pa
(** Physical address of one 8-byte PTE slot. *)

val search :
  t ->
  vsid:int ->
  page_index:int ->
  on_ref:(Addr.pa -> unit) ->
  Pte.t option
(** [search t ~vsid ~page_index ~on_ref] looks through the primary PTEG
    then the secondary PTEG, calling [on_ref] with the physical address of
    every PTE slot examined (matching hardware search order: a hit in slot
    [k] of the primary group costs [k+1] references). *)

val search_counted :
  t ->
  vsid:int ->
  page_index:int ->
  on_ref:(Addr.pa -> unit) ->
  Pte.t option * int
(** [search] plus the number of PTE slots examined (the probe length the
    trace layer charges to its histogram).  Reference behaviour is
    identical: [on_ref] sees the same addresses in the same order. *)

val find_slot : t -> vsid:int -> page_index:int -> int
(** [find_slot t ~vsid ~page_index] is the flat slot index of the entry
    for that key, or [-1]: the primary PTEG's eight slots, then the
    secondary's, each scan unrolled.  A pure probe: it reports no read,
    sets no bit and allocates nothing.  The slots it read are the runs
    below, for the length {!probe_len} gives. *)

val runs : len:int -> int
(** [runs ~len] is the number of line runs a search that examined [len]
    slots read: one per line it entered, four at most. *)

val run_slots : len:int -> int -> int
(** [run_slots ~len k] is how many slots run [k] ([0 <= k < runs ~len])
    of that search read: four, or what is left of [len] for the last. *)

val run_pa : t -> vsid:int -> page_index:int -> int -> Addr.pa
(** [run_pa t ~vsid ~page_index k] is where run [k] of the search for
    that key starts: line [k] of the primary PTEG's two lines followed
    by the secondary's.  A hit in slot 2 of the primary is one run of 3,
    a hit in slot 5 runs of 4 and 2, a miss four runs of 4. *)

val decode : t -> int -> Pte.t
(** [decode t i] is the entry in slot [i] decoded from its two words
    ({!Pte.invalid} for an invalid slot): a fresh immutable view, so
    nothing written to the table through it can exist. *)

val reference : t -> int -> int
(** [reference t i] sets the R bit of the valid entry in slot [i] — what
    the hardware does on a search hit — and returns its word 1, which
    {!rpn}, {!writable} and {!inhibited} read. *)

val rpn : int -> int
(** The real page number in a word 1. *)

val writable : int -> bool
(** Whether a word 1's PP bits grant a user store. *)

val inhibited : int -> bool
(** Whether a word 1's WIMG bits mark the page cache-inhibited. *)

val vsid_of_tag : int -> int
(** The VSID in a word 0 (a search tag), as {!insert} reports a
    displaced entry. *)

val probe_len : t -> vsid:int -> page_index:int -> int -> int
(** [probe_len t ~vsid ~page_index i] is the number of slots the search
    for that key examined, given the slot (or [-1]) it returned — the
    count {!search_counted} reports. *)

(** Victim selection when both PTEGs are full.

    - [Arbitrary] is the paper's shipped policy ("it chose an arbitrary
      PTE to replace ... not checking if it has a currently valid VSID").
    - [Second_chance] prefers a victim whose R bit is clear; when every
      entry has been referenced it strips the R bits (a second chance)
      and falls back to an arbitrary choice.
    - [Prefer_zombie p] is the design the paper rejected for the hot
      path: consult the VSID-liveness predicate [p] and evict a zombie
      when one exists — correctness-equivalent but paying a software
      check per candidate on every overflow (the cost §7 moved into the
      idle task instead). *)
type replacement =
  | Arbitrary
  | Second_chance
  | Prefer_zombie of (int -> bool)

val insert :
  ?policy:replacement ->
  ?changed:bool ->
  t ->
  rng:Rng.t ->
  vsid:int ->
  page_index:int ->
  rpn:int ->
  wimg:Pte.wimg ->
  protection:Pte.protection ->
  on_run:(Addr.pa -> int -> unit) ->
  int
(** [insert t ~rng ...] places a PTE, preferring an invalid slot in the
    primary PTEG, then in the secondary PTEG; when both groups are full a
    victim is displaced according to [policy] (default [Arbitrary] — the
    paper's non-optimal replacement, which cannot tell a zombie from a
    live entry).  If an entry with the same tag already exists it is
    updated in place.  The written entry has R set and C set to
    [changed] (default [false]) whichever way the slot was found.
    Returns the displaced entry's word 0 ({!vsid_of_tag} reads its VSID),
    or [-1] when no valid entry was displaced.  Reports each PTEG's
    free-slot scan as two runs of 4, a victim scan up to where it
    stopped, and the victim's own read as a run of 1, every one before
    the entry is written.  Allocates nothing. *)

val invalidate_page :
  t -> vsid:int -> page_index:int -> on_run:(Addr.pa -> int -> unit) -> bool
(** [invalidate_page t ~vsid ~page_index ~on_run] performs the precise
    per-page flush: search both PTEGs (reporting the runs {!run_pa}
    defines)
    and clear the valid bit if found.  Returns whether an entry was
    invalidated. *)

val reclaim_zombies :
  t ->
  is_zombie:(int -> bool) ->
  max_ptes:int ->
  per_slot:bool ->
  on_run:(Addr.pa -> int -> unit) ->
  int
(** [reclaim_zombies t ~is_zombie ~max_ptes ~per_slot ~on_run] is the
    idle-task scan: examine up to [max_ptes] slots starting from a
    persistent cursor, clearing the valid bit of every PTE whose VSID
    satisfies [is_zombie] (read from word 0).  Returns the number
    reclaimed.  The cursor survives across calls so repeated idle slices
    cover the whole table.  Each run is reported before any of its slots
    is cleared; with [per_slot] every run is one slot, so each read is
    reported before that slot's clear and after the previous slot's —
    the order a recorder sampling mid-scan must see. *)

val occupancy : t -> int
(** Number of valid PTEs (live + zombie: what the hardware sees). *)

val count_valid : t -> f:(int -> bool) -> int
(** Count valid entries whose VSID satisfies [f] (e.g. live vs zombie
    split).  Reads word 0 only; decodes nothing. *)

val clear : t -> unit
(** Invalidate every entry. *)

val histogram : t -> int array
(** [histogram t].(k) = number of PTEGs with exactly [k] valid entries
    (k in 0..8) — the hash-miss histogram Linux kept to tune the VSID
    multiplier (§5.2). *)
