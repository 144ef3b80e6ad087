(** Per-process memory context: VMAs, page tables, context id.

    Linux divides each process's 4 GB into the user half (below
    [0xC0000000]) and the kernel half.  A process's user mappings are
    described by VMAs and realized in its two-level page table; the
    context id determines its 12 user-segment VSIDs.  This module is pure
    bookkeeping — cost charging and flush policy live in {!Kernel}. *)

open Ppc

(** What backs a vma's pages on a demand fault. *)
type backing =
  | Anonymous
      (** demand-zero: faults allocate a zeroed frame *)
  | File_pages of Vfs.file * int
      (** file mapping: faults install page-cache frames (shared, never
          freed with the address space), starting at the given page
          offset *)
  | Phys_window of int
      (** direct window onto physical space starting at the given frame
          (device apertures like a frame buffer); frames are shared and
          never freed *)

type vma = {
  va_start : Addr.ea;   (** page aligned *)
  va_pages : int;
  va_writable : bool;
  va_backing : backing;
}

type t

val user_text_base : Addr.ea
(** [0x01800000], where Linux/PPC links executables. *)

val user_mmap_base : Addr.ea
(** [0x40000000], bottom of the mmap arena. *)

val user_stack_top : Addr.ea
(** [0x80000000], stack grows down from here. *)

val framebuffer_base : Addr.ea
(** [0x60000000]: where the frame-buffer aperture is mapped (its own
    segment, so a dedicated BAT or segment policy can target it). *)

val framebuffer_bytes : int
(** 4 MB, the aperture's size (and its BAT block's). *)

val create :
  physmem:Physmem.t -> vsid_alloc:Vsid_alloc.t -> pid:int -> unit -> t
(** Allocates the pgd and issues a live context id. *)

val pid : t -> int
val ctx : t -> int

val set_ctx : t -> int -> unit
(** Install a renewed context id (lazy whole-context flush). *)

val cpumask : t -> int
(** Bitmask of CPUs this address space has ever run on — the
    conservative TLB-shootdown target set (Linux's [mm_cpumask]).
    Never narrowed. *)

val note_running : t -> cpu:int -> unit
(** Record that the address space is running on [cpu] (called by the
    kernel's context switch). *)

val vsid_for_sr : t -> vsid_alloc:Vsid_alloc.t -> int -> int
(** The VSID this address space loads into user segment register [sr]. *)

val pagetable : t -> Pagetable.t

val add_vma : t -> vma -> unit
(** @raise Invalid_argument if it overlaps an existing vma. *)

val remove_vma : t -> start:Addr.ea -> vma option

val grow_vma : t -> start:Addr.ea -> extra_pages:int -> vma
(** [grow_vma t ~start ~extra_pages] extends the vma beginning at
    [start] — the mechanics of [brk].
    @raise Invalid_argument if no vma starts there or growth would
    overlap a neighbour. *)

val find_vma : t -> Addr.ea -> vma option

val vmas : t -> vma list

val range_free : t -> ea:Addr.ea -> pages:int -> bool
(** No vma overlaps the [pages] pages from [ea]. *)

val alloc_mmap_range : t -> pages:int -> Addr.ea
(** Choose a free range of [pages] in the mmap arena (no vma is added):
    the next range at the bump cursor while it is free, else the lowest
    free range at or above {!user_mmap_base} (first fit), so address
    space that munmap freed is reused.  The frame-buffer aperture
    ({!framebuffer_base}, {!framebuffer_bytes}) is never chosen: the
    cursor steps over it and first fit starts again at its end.
    @raise Invalid_argument if [pages <= 0] or no range below
    {!user_stack_top} fits. *)

val reset_vmas : t -> unit
(** Drop every vma and rewind the mmap arena — the address-space reset of
    [exec].  Page-table contents are untouched (the caller unmaps). *)

val mapped_pages : t -> int

val destroy :
  t ->
  physmem:Physmem.t ->
  vsid_alloc:Vsid_alloc.t ->
  free_frame:(int -> unit) ->
  unit
(** Release every mapped frame (via [free_frame]), the page-table frames,
    and retire the context id. *)
