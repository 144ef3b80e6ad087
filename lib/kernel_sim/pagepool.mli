(** [get_free_page] and the pre-zeroed page list (§9).

    The paper's final design: the idle task clears free pages with the
    cache {e disabled} for those pages and threads them onto a lock-free
    list; [get_zeroed_page] first checks that list and only clears a page
    itself (through the cache, polluting it) when the list is empty.  The
    failed variants are expressible too: clearing through the cache
    (evicts live data), and clearing uncached without keeping the list
    (pure wasted idle work, measured to be performance-neutral).

    All clearing costs are charged through {!Ppc.Memsys}, one
    {!Ppc.Memsys.zero_lines} call per page.  Cached clearing uses
    [dcbz] (allocate-and-zero, no memory fetch): cheap in cycles but
    every line evicts someone else's — attributed to source
    [Idle_clear] (idle) or [Kernel] (foreground demand clearing).
    Uncached clearing uses plain stores that bypass the cache entirely:
    slower per store (paid in idle time) but pollution-free. *)

type t

val create :
  physmem:Physmem.t ->
  memsys:Ppc.Memsys.t ->
  clearing:Policy.idle_clearing ->
  use_list:bool ->
  unit ->
  t
(** The pre-zeroed list holds at most {!Policy.prezero_list_pages}. *)

val get_page : t -> int option
(** A frame with undefined contents (page-cache use); never consults the
    pre-zeroed list and charges only the free-list check. *)

val get_zeroed_page : t -> int option
(** The demand-zero allocation: pops a pre-zeroed page when available
    (counted in [prezeroed_hits]), otherwise allocates and clears through
    the cache in the foreground. *)

val free_page : t -> int -> unit
(** Return a (dirty) frame to the allocator. *)

val idle_clear_one : t -> bool
(** One unit of idle clearing work: take a free frame, clear it per the
    clearing mode, and either push it on the list or (no-list mode)
    return it dirty-free as the paper's control experiment did.  Returns
    [false] — no work performed — when clearing is off, memory is
    exhausted, or the list is full. *)

val prezeroed_available : t -> int
(** Current pre-zeroed list length. *)
