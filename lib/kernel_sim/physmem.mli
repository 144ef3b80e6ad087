(** Physical page-frame allocator.

    Manages the 32 MB of RAM as 4 KB frames.  The low [reserved] region
    (kernel image, htab, vectors) is never allocated.  Allocation is
    LIFO (a freed frame is reused first), which is what makes the
    pre-zeroed-page list of §9 interesting: without it, a hot frame keeps
    cycling through [get_free_page] and must be re-cleared every time.

    The order is that of one stack holding every free frame, the
    never-used ones at the bottom (lowest on top of them) and each freed
    frame pushed above: [alloc] takes the most recently freed frame
    still free, and only when none is left the lowest never-used one.
    So the allocator keeps only what that stack's two parts need: a
    watermark below which every non-reserved frame has been handed out
    at least once, and a stack of the freed frames that grows only as
    frames are freed.  With one byte per frame marking which are handed
    out, creating an allocator over 32 MB writes 8 KB and no per-frame
    array of words, and it hands out exactly the frames the full stack
    would. *)

type t

val create : ram_bytes:int -> reserved_bytes:int -> t
(** [create ~ram_bytes ~reserved_bytes] builds an allocator over
    [ram_bytes] with the first [reserved_bytes] pinned. *)

val total_frames : t -> int
(** All frames, including reserved ones. *)

val reserved_frames : t -> int

val free_frames : t -> int
(** Currently allocatable frames. *)

val alloc : t -> int option
(** [alloc t] takes a frame (returns its RPN), or [None] when memory is
    exhausted. *)

val free : t -> int -> unit
(** [free t rpn] returns a frame.
    @raise Invalid_argument on a reserved, out-of-range or already-free
    frame (double free). *)

val is_allocated : t -> int -> bool
(** [is_allocated t rpn] — is this frame currently handed out (reserved
    frames count as allocated)? *)
