open Ppc
module Kernel = Kernel_sim.Kernel
module Pagepool = Kernel_sim.Pagepool
module Physmem = Kernel_sim.Physmem

type snapshot = {
  tlb_valid : int;
  tlb_capacity : int;
  kernel_tlb : int;
  htab_valid : int;
  htab_live : int;
  htab_zombie : int;
  htab_capacity : int;
  htab_histogram : int array;
  prezeroed_pages : int;
  free_frames : int;
}

let snapshot k =
  let mmu = Kernel.mmu k in
  let live, zombie = Kernel.htab_live_and_zombie k in
  let histogram, capacity =
    match Mmu.htab mmu with
    | None -> ([||], 0)
    | Some h -> (Htab.histogram h, Htab.capacity h)
  in
  { tlb_valid = Mmu.tlb_occupancy mmu;
    tlb_capacity = Tlb.capacity (Mmu.itlb mmu) + Tlb.capacity (Mmu.dtlb mmu);
    kernel_tlb = Kernel.kernel_tlb_entries k;
    htab_valid = live + zombie;
    htab_live = live;
    htab_zombie = zombie;
    htab_capacity = capacity;
    htab_histogram = histogram;
    prezeroed_pages = Pagepool.prezeroed_available (Kernel.pagepool k);
    free_frames = Physmem.free_frames (Kernel.physmem k) }

let pp_snapshot fmt s =
  Format.fprintf fmt
    "@[<v>TLB: %d/%d valid (%d kernel)@,\
     htab: %d/%d valid (%d live, %d zombie)@,\
     pre-zeroed pages: %d; free frames: %d@]"
    s.tlb_valid s.tlb_capacity s.kernel_tlb s.htab_valid s.htab_capacity
    s.htab_live s.htab_zombie s.prezeroed_pages s.free_frames
