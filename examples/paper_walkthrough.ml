(* The paper, section by section, measured live: a narrated tour of every
   optimization using the library API (~1 minute of wall clock).

     dune exec examples/paper_walkthrough.exe *)

open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Config = Mmu_tricks.Config
module Metrics = Mmu_tricks.Metrics
module Experiments = Mmu_tricks.Experiments
module Lmbench = Workloads.Lmbench

let say fmt = Printf.printf (fmt ^^ "\n%!")

let header s =
  print_newline ();
  say "%s" s;
  say "%s" (String.make (String.length s) '-')

(* §5.1 — the kernel's TLB footprint, with and without BATs. *)
let sec51 () =
  header "sec 5.1 - Reducing the OS TLB footprint";
  let share policy =
    let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed:1 () in
    let t = Kernel.spawn k () in
    Kernel.switch_to k t;
    for _ = 1 to 40 do
      Kernel.sys_null k
    done;
    Kernel.user_run k ~instrs:2000;
    (Kernel.kernel_tlb_entries k, Mmu.tlb_occupancy (Kernel.mmu k))
  in
  let kb, tb = share Policy.baseline in
  let ko, to_ = share Policy.optimized in
  say "after a burst of syscalls, kernel translations sit in the TLB:";
  say "  PTE-mapped kernel: %d of %d valid entries are the kernel's" kb tb;
  say "  BAT-mapped kernel: %d of %d (the BAT bypasses the TLB entirely)"
    ko to_

(* §5.2 — hash-table hot spots. *)
let sec52 () =
  header "sec 5.2 - VSID scatter and the hashed page table";
  let hot mult =
    let s = Experiments.vsid_score ~procs:12 ~pages:200 ~seed:1 mult in
    (s.Experiments.full_ptegs, s.Experiments.evictions)
  in
  let f1, e1 = hot 1 and f897, e897 = hot 897 in
  say "12 identical processes, 200 pages each, hashed into 2048 PTEGs:";
  say "  naive VSIDs (pid):   %4d full PTEGs, %5d overflow evictions" f1 e1;
  say "  scattered (x897):    %4d full PTEGs, %5d overflow evictions" f897
    e897

(* §6.1/6.2 — reload paths. *)
let sec6 () =
  header "sec 6 - The cost of a TLB miss";
  let miss_cost machine knob_htab fast =
    let policy =
      { Policy.optimized with Policy.use_htab = knob_htab; fast_reload = fast }
    in
    let k = Kernel.boot ~machine ~policy ~seed:1 () in
    let t = Kernel.spawn k ~data_pages:200 () in
    Kernel.switch_to k t;
    let data = Mm.user_text_base + (16 * Addr.page_size) in
    for i = 0 to 199 do
      Kernel.touch k Mmu.Store (data + (i * Addr.page_size))
    done;
    (* force re-walks: invalidate the TLBs, touch again *)
    Mmu.invalidate_tlbs (Kernel.mmu k);
    let cycles =
      Workloads.Measure.cycles k (fun () ->
          for i = 0 to 199 do
            Kernel.touch k Mmu.Load (data + (i * Addr.page_size))
          done)
    in
    float_of_int cycles /. 200.0
  in
  say "cycles per re-touch after a full TLB flush (200 warm pages):";
  say "  603, htab emulation, C handlers:   %5.0f"
    (miss_cost Machine.ppc603_133 true false);
  say "  603, htab emulation, asm handlers: %5.0f"
    (miss_cost Machine.ppc603_133 true true);
  say "  603, direct PTE walk (sec 6.2):    %5.0f"
    (miss_cost Machine.ppc603_133 false true);
  say "  604, hardware search:              %5.0f"
    (miss_cost Machine.ppc604_185 true true)

(* §7 — lazy flushing and zombies. *)
let sec7 () =
  header "sec 7 - Lazy flushing, zombies, and the idle task";
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:1 ()
  in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let ea = Kernel.sys_mmap k ~pages:64 ~writable:true in
  for i = 0 to 63 do
    Kernel.touch k Mmu.Store (ea + (i * Addr.page_size))
  done;
  let live0, _ = Kernel.htab_live_and_zombie k in
  Kernel.sys_munmap k ~ea ~pages:64;
  let live1, z1 = Kernel.htab_live_and_zombie k in
  Kernel.idle_for k ~cycles:3_000_000;
  let _, z2 = Kernel.htab_live_and_zombie k in
  say "64 pages touched: %d live htab entries" live0;
  say "munmap (lazy, above the 20-page cutoff): %d live, %d zombies" live1 z1;
  say "after the idle task sweeps: %d zombies remain" z2

(* §9 — page clearing. *)
let sec9 () =
  header "sec 9 - Idle-task page clearing";
  let r policy =
    Workloads.Kbuild.measure ~machine:Machine.ppc604_185 ~policy
      ~params:{ Workloads.Kbuild.default_params with Workloads.Kbuild.jobs = 6 }
      ~seed:1 ()
  in
  let off = r Config.clearing_off in
  let win = r Config.clearing_uncached_list in
  say "a 6-job compile, busy time:";
  say "  no idle clearing:          %5.1f ms"
    (off.Workloads.Kbuild.busy_us /. 1000.);
  say "  uncached clearing + list:  %5.1f ms  (%d pages arrived pre-zeroed)"
    (win.Workloads.Kbuild.busy_us /. 1000.)
    win.Workloads.Kbuild.perf.Perf.prezeroed_hits

(* §11 — the bottom line. *)
let sec11 () =
  header "sec 11 - The bottom line (133MHz 604)";
  let null policy =
    Lmbench.null_syscall_us
      (Kernel.boot ~machine:Machine.ppc604_133 ~policy ~seed:1 ())
  in
  say "null syscall: %.1f us unoptimized -> %.1f us optimized (paper: 18 -> 2)"
    (null Policy.baseline) (null Policy.optimized)

let () =
  say "Optimizing the Idle Task and Other MMU Tricks (OSDI '99),";
  say "measured on the simulator. Sections follow the paper.";
  sec51 ();
  sec52 ();
  sec6 ();
  sec7 ();
  sec9 ();
  sec11 ();
  print_newline ();
  say "Full tables: dune exec bin/mmu_sim.exe -- experiment --jobs 4   (see \
       EXPERIMENTS.md)"
