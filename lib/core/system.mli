(** Snapshot a booted system's MMU state.

    Boot with {!Kernel_sim.Kernel.boot} and measure a region with
    {!Workloads.Measure.region}; this module adds the snapshot. *)

module Kernel = Kernel_sim.Kernel

(** A point-in-time picture of the MMU structures. *)
type snapshot = {
  tlb_valid : int;          (** valid TLB entries, I + D *)
  tlb_capacity : int;
  kernel_tlb : int;         (** TLB entries holding kernel translations *)
  htab_valid : int;         (** valid htab PTEs (live + zombie) *)
  htab_live : int;
  htab_zombie : int;
  htab_capacity : int;
  htab_histogram : int array;  (** PTEGs by valid-entry count (0..8) *)
  prezeroed_pages : int;
  free_frames : int;
}

val snapshot : Kernel.t -> snapshot

val pp_snapshot : Format.formatter -> snapshot -> unit
