(** The Linux two-level page tables.

    The "machine independent" Linux core mandates x86-style page tables:
    a page global directory (pgd) of 1024 entries, each covering 4 MB via
    a page of 1024 four-byte PTEs.  On Linux/PPC this tree is the
    authoritative source of translations and the hashed page table is
    merely a cache of it (§8) — which is why the 603 can skip the htab
    entirely and walk this tree in its TLB-miss handler: "searching for a
    PTE in the tree can be done conveniently ... taking three loads in the
    worst case" (§6.1).  The three loads are: the pgd pointer in the
    context structure, the pgd entry, and the PTE itself; [walk] reports
    their physical addresses so the MMU charges them through the cache.

    Directory pages live in real physical frames taken from {!Physmem},
    so walks touch genuinely distinct cache lines, as on hardware.

    Each PTE page is one [int array] of 1024 packed words, one per
    mapping, and nothing else is stored per mapping.  A word is [-1]
    when the page is unmapped; otherwise, high bits to low:

    {v
      bits 4 and up   bit 3      bit 2       bit 1    bit 0
      rpn             writable   inhibited   shared   cow
    v}

    - [writable]: user stores are allowed;
    - [inhibited]: a cache-inhibited mapping;
    - [shared]: the frame is owned elsewhere (page cache, device
      aperture) and is never freed with the address space;
    - [cow]: copy-on-write, mapped read-only and possibly referenced by
      several address spaces; a store breaks the sharing.

    {!pte} builds a word and the accessors below read one;
    [find], [unmap], [walk] and [iter] hand out words, so no lookup
    allocates.

    A PTE page may also be {e linear}: one that {!map_linear} filled
    from its first slot with consecutive frames, such as the kernel's
    linear map of all RAM.  A linear page has its frame, so walks report
    the same load addresses, but stores no words: slot [j] holds its
    first word with [j] added to the rpn, for the slots the range
    reached, and {!unmapped} above them.  [walk], [find] and [iter]
    compute a linear page's word from that; the first [map] or [unmap]
    into the page (or [unmap_all] over it) materializes its 1024 words,
    so every answer is what the same mappings made one by one give. *)

open Ppc

exception Out_of_frames
(** Raised when a directory page cannot be allocated. *)

val unmapped : int
(** [-1], the word of an unmapped page. *)

val pte :
  rpn:int -> writable:bool -> inhibited:bool -> shared:bool -> cow:bool -> int
(** The word mapping frame [rpn] with those bits. *)

val rpn : int -> int
val writable : int -> bool
val inhibited : int -> bool
val shared : int -> bool
val cow : int -> bool
(** The fields of a mapped word. *)

val share_cow : int -> int
(** [share_cow w] is [w] read-only and copy-on-write: fork's downgrade. *)

val break_cow : int -> rpn:int -> int
(** [break_cow w ~rpn] is [w] writable and no longer copy-on-write, on
    frame [rpn] (a fresh copy, or [rpn w] when the last other referent
    is gone). *)

type t

val create : physmem:Physmem.t -> ctx_pa:Addr.pa -> t
(** [create ~physmem ~ctx_pa] allocates the pgd frame.  [ctx_pa] is the
    physical address of the context structure holding the pgd pointer —
    the first load of every walk. *)

val pgd_rpn : t -> int

val map : t -> physmem:Physmem.t -> ea:Addr.ea -> int -> unit
(** [map t ~physmem ~ea w] installs the mapped word [w] for the page
    containing [ea], allocating the PTE page on demand.
    @raise Out_of_frames when a directory frame cannot be allocated. *)

val map_linear :
  t -> physmem:Physmem.t -> ea:Addr.ea -> int -> pages:int -> unit
(** [map_linear t ~physmem ~ea w ~pages] maps the [pages] pages from
    [ea] to consecutive frames from [rpn w], each with [w]'s bits, into
    linear PTE pages that store no words.  It allocates their frames,
    and gives every answer, exactly as [pages] {!map} calls in
    ascending order would.
    @raise Invalid_argument unless [ea] starts a PTE page's 4 MB and
    every pgd slot the range reaches is empty.
    @raise Out_of_frames when a directory frame cannot be allocated. *)

val unmap : t -> ea:Addr.ea -> int
(** [unmap t ~ea] removes the translation and returns its word
    ({!unmapped} if there was none). *)

val find : t -> ea:Addr.ea -> int
(** Side-effect-free lookup (no reference reporting): the word, or
    {!unmapped}. *)

val walk : t -> ea:Addr.ea -> on_ref:(Addr.pa -> unit) -> int
(** [walk t ~ea ~on_ref] is the hardware-visible walk: it calls [on_ref]
    with the physical address of each load it performs, in order (2 when
    the pgd entry is empty, 3 otherwise), and returns the word.
    Allocates nothing. *)

val mapped_count : t -> int
(** Number of installed translations. *)

val iter : t -> (Addr.ea -> int -> unit) -> unit
(** [iter t f] calls [f] on every mapping (page-aligned EA and word), in
    ascending address order. *)

val unmap_all : t -> (int -> unit) -> unit
(** [unmap_all t f] removes every mapping in descending address order,
    calling [f] with each word right after removing it. *)

val destroy : t -> physmem:Physmem.t -> unit
(** Free every directory frame.  The mapped data frames themselves are
    the caller's to release. *)
