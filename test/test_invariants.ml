(* Counter-algebra invariants: after any workload, the performance
   monitor's numbers must be internally consistent.  These catch charging
   bugs (double counts, missing increments) that no single-path unit test
   would. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Config = Mmu_tricks.Config

let check_invariants name (p : Perf.t) =
  let chk what cond = Alcotest.(check bool) (name ^ ": " ^ what) true cond in
  chk "cycles non-negative" (p.Perf.cycles >= 0);
  chk "idle <= total cycles" (p.Perf.idle_cycles <= p.Perf.cycles);
  chk "busy = cycles - idle"
    (Perf.busy_cycles p = p.Perf.cycles - p.Perf.idle_cycles);
  chk "instructions <= cycles" (p.Perf.instructions <= p.Perf.cycles);
  chk "itlb misses <= lookups" (p.Perf.itlb_misses <= p.Perf.itlb_lookups);
  chk "dtlb misses <= lookups" (p.Perf.dtlb_misses <= p.Perf.dtlb_lookups);
  chk "htab searches = hits + misses"
    (p.Perf.htab_searches = p.Perf.htab_hits + p.Perf.htab_misses);
  chk "htab evicts <= reloads" (p.Perf.htab_evicts <= p.Perf.htab_reloads);
  chk "evict classification total"
    (p.Perf.htab_evicts = p.Perf.htab_evicts_live + p.Perf.htab_evicts_zombie);
  chk "icache misses <= accesses"
    (p.Perf.icache_misses <= p.Perf.icache_accesses);
  chk "dcache misses + bypasses <= accesses"
    (p.Perf.dcache_misses + p.Perf.dcache_bypasses
    <= p.Perf.dcache_accesses);
  chk "write-backs <= dcache misses + dcbz traffic"
    (p.Perf.dcache_writebacks <= p.Perf.dcache_accesses);
  chk "prezero hits <= get_free_page calls"
    (p.Perf.prezeroed_hits <= p.Perf.get_free_page_calls)

let workload k =
  let a = Kernel.spawn k () and b = Kernel.spawn k () in
  Kernel.switch_to k a;
  Kernel.user_run k ~instrs:5000;
  let data = Mm.user_text_base + (16 * Addr.page_size) in
  for i = 0 to 11 do
    Kernel.touch k Mmu.Store (data + (i * Addr.page_size))
  done;
  let ea = Kernel.sys_mmap k ~pages:40 ~writable:true in
  for i = 0 to 9 do
    Kernel.touch k Mmu.Store (ea + (i * Addr.page_size))
  done;
  let child = Kernel.sys_fork k in
  Kernel.switch_to k child;
  Kernel.touch k Mmu.Store data;
  Kernel.sys_exit k;
  Kernel.switch_to k b;
  Kernel.user_run k ~instrs:3000;
  let p = Kernel.new_pipe k in
  ignore (Kernel.sys_pipe_write k p ~buf:data ~bytes:512 : int);
  ignore (Kernel.sys_pipe_read k p ~buf:data ~bytes:512 : int);
  ignore (Kernel.sys_brk k ~pages:3 : Addr.ea);
  Kernel.switch_to k a;
  Kernel.sys_munmap k ~ea ~pages:40;
  Kernel.idle_for k ~cycles:60_000;
  Kernel.sys_exit k;
  Kernel.switch_to k b;
  Kernel.sys_exit k

let test_invariants_for name machine policy () =
  let k = Kernel.boot ~machine ~policy ~seed:13 () in
  workload k;
  check_invariants name (Kernel.perf k)

let prop_invariants_random_policies =
  (* random policy combinations: every combination must keep the counter
     algebra intact *)
  QCheck.Test.make ~name:"counter algebra holds for random policies"
    ~count:25
    QCheck.(int_bound 0xFFFF)
    (fun bits ->
      let b n = bits lsr n land 1 = 1 in
      let policy =
        { Policy.optimized with
          Policy.bat_kernel_mapping = b 0;
          fast_reload = b 1;
          fast_paths = b 2;
          use_htab = b 3;
          flush_cutoff = (if b 5 then Some 20 else None);
          idle_zombie_reclaim = b 6;
          idle_clearing =
            (match bits lsr 7 land 3 with
            | 0 -> Policy.Clear_off
            | 1 -> Policy.Clear_cached
            | _ -> Policy.Clear_uncached);
          idle_clear_list = b 9;
          cache_inhibit_pagetables = b 10;
          idle_cache_lock = b 11;
          cache_preload = b 12;
          htab_replacement =
            (match bits lsr 13 land 3 with
            | 0 -> `Arbitrary
            | 1 -> `Second_chance
            | _ -> `Zombie_aware);
          vsid_source =
            (if b 15 then Kernel_sim.Vsid_alloc.Context_counter
             else Kernel_sim.Vsid_alloc.Pid_based) }
      in
      let machine =
        if b 8 then Machine.ppc603_133 else Machine.ppc604_185
      in
      let k = Kernel.boot ~machine ~policy ~seed:13 () in
      workload k;
      let p = Kernel.perf k in
      p.Perf.idle_cycles <= p.Perf.cycles
      && p.Perf.htab_searches = p.Perf.htab_hits + p.Perf.htab_misses
      && p.Perf.htab_evicts
         = p.Perf.htab_evicts_live + p.Perf.htab_evicts_zombie
      && p.Perf.itlb_misses <= p.Perf.itlb_lookups
      && p.Perf.dtlb_misses <= p.Perf.dtlb_lookups
      && p.Perf.dcache_misses + p.Perf.dcache_bypasses
         <= p.Perf.dcache_accesses
      && p.Perf.instructions <= p.Perf.cycles)

let suite =
  [ Alcotest.test_case "baseline on 604" `Quick
      (test_invariants_for "baseline-604" Machine.ppc604_185 Policy.baseline);
    Alcotest.test_case "optimized on 604" `Quick
      (test_invariants_for "optimized-604" Machine.ppc604_185
         Policy.optimized);
    Alcotest.test_case "optimized on 603" `Quick
      (test_invariants_for "optimized-603" Machine.ppc603_133
         Policy.optimized);
    Alcotest.test_case "no htab on 603" `Quick
      (test_invariants_for "nohtab-603" Machine.ppc603_180
         Config.optimized_no_htab);
    Alcotest.test_case "cached clearing" `Quick
      (test_invariants_for "clearing-604" Machine.ppc604_185
         Config.clearing_cached_list);
    Alcotest.test_case "uncached page tables on 750" `Quick
      (test_invariants_for "ptunc-750" Machine.ppc750_233
         Config.optimized_pt_uncached);
    Alcotest.test_case "601 baseline" `Quick
      (test_invariants_for "base-601" Machine.ppc601_80 Policy.baseline);
    QCheck_alcotest.to_alcotest prop_invariants_random_policies ]
