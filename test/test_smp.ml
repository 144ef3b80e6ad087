(* SMP: per-CPU TLBs, shootdowns, deferred lazy resets, work stealing. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Sched = Kernel_sim.Sched
module Mm = Kernel_sim.Mm
module V = Kernel_sim.Vsid_alloc
module Config = Mmu_tricks.Config

let data_base ~text_pages = Mm.user_text_base + (text_pages lsl Addr.page_shift)

(* A fixed little workload used by the identity test below. *)
let drive k =
  let t = Kernel.spawn k ~text_pages:8 ~data_pages:8 ~stack_pages:4 () in
  Kernel.switch_to k t;
  Kernel.user_run k ~instrs:5_000;
  let base = data_base ~text_pages:8 in
  for i = 0 to 7 do
    Kernel.touch k Mmu.Store (base + (i lsl Addr.page_shift))
  done;
  ignore (Kernel.sys_mmap k ~pages:32 ~writable:true);
  Kernel.sys_exec k ~text_pages:8 ~data_pages:8 ~stack_pages:4;
  Kernel.user_run k ~instrs:5_000;
  Kernel.sys_exit k

(* The hard constraint of this PR: a one-CPU SMP boot is not "SMP with
   one CPU", it IS the old kernel — every counter agrees exactly. *)
let test_cpus1_identical () =
  let k1 = Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized
      ~seed:11 () in
  let k2 = Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized
      ~seed:11 ~cpus:1 () in
  drive k1;
  drive k2;
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) name a b)
    (Perf.fields (Kernel.perf k1))
    (Perf.fields (Kernel.perf k2))

(* Idle CPUs must pull runnable work instead of spinning: three queues
   drain after one slice, the fourth still holds two long-running tasks
   — one of them must migrate. *)
let test_idle_steal () =
  let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized
      ~seed:3 ~cpus:4 () in
  let sched = Sched.create k in
  let short () =
    fun k ->
      Kernel.user_run k ~instrs:200;
      Kernel.sys_exit k;
      Sched.Done
  and long () =
    let n = ref 0 in
    fun k ->
      Kernel.user_run k ~instrs:200;
      incr n;
      if !n >= 50 then begin
        Kernel.sys_exit k;
        Sched.Done
      end
      else Sched.Yield
  in
  (* round-robin enrollment: cpu0 gets tasks 1 and 5 *)
  Sched.add sched (Kernel.spawn k ()) (long ());
  Sched.add sched (Kernel.spawn k ()) (short ());
  Sched.add sched (Kernel.spawn k ()) (short ());
  Sched.add sched (Kernel.spawn k ()) (short ());
  Sched.add sched (Kernel.spawn k ()) (long ());
  Sched.run sched;
  Alcotest.(check int) "all done" 0 (Sched.live sched);
  Alcotest.(check bool) "an idle CPU stole work" true
    ((Kernel.perf k).Perf.work_steals >= 1)

(* Precise flushing across CPUs: an exec on CPU 0 must shoot down the
   sibling thread's warm TLB on CPU 1, and the per-CPU miss counters
   must partition the machine totals. *)
let exec_across_cpus k =
  let text_pages = 8 and data_pages = 8 and stack_pages = 4 in
  let base = data_base ~text_pages in
  let touch_all () =
    for i = 0 to data_pages - 1 do
      Kernel.touch k Mmu.Store (base + (i lsl Addr.page_shift))
    done
  in
  let a = Kernel.spawn k ~text_pages ~data_pages ~stack_pages () in
  Kernel.set_active_cpu k 0;
  Kernel.switch_to k a;
  Kernel.user_run k ~instrs:1_000;
  touch_all ();
  let b = Kernel.spawn_thread k ~peer:a in
  Kernel.set_active_cpu k 1;
  Kernel.switch_to k b;
  Kernel.user_run k ~instrs:1_000;
  touch_all ();
  Kernel.set_active_cpu k 0;
  Kernel.sys_exec k ~text_pages ~data_pages ~stack_pages;
  touch_all ();
  Kernel.set_active_cpu k 1;
  Kernel.user_run k ~instrs:1_000;
  touch_all ()

let test_cross_cpu_shootdowns () =
  let k = Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Config.optimized_precise_flush ~seed:5 ~cpus:2 () in
  exec_across_cpus k;
  let p = Kernel.perf k in
  Alcotest.(check bool) "shootdown rounds issued" true
    (p.Perf.tlb_shootdowns > 0);
  Alcotest.(check bool) "remote TLBs invalidated" true
    (p.Perf.remote_tlb_invalidates > 0);
  (* batched shootdowns: one IPI round covers a whole range, so
     invalidates can outnumber IPIs — but every round sent at least one
     IPI and covered at least one page *)
  Alcotest.(check bool) "every round rode an IPI" true
    (p.Perf.ipis_sent >= p.Perf.tlb_shootdowns);
  Alcotest.(check bool) "rounds cover their pages" true
    (p.Perf.shootdown_batch_pages >= p.Perf.tlb_shootdowns);
  let mmu = Kernel.mmu k in
  Alcotest.(check int) "per-CPU itlb misses partition the total"
    p.Perf.itlb_misses
    (Mmu.cpu_itlb_misses mmu ~cpu:0 + Mmu.cpu_itlb_misses mmu ~cpu:1);
  Alcotest.(check int) "per-CPU dtlb misses partition the total"
    p.Perf.dtlb_misses
    (Mmu.cpu_dtlb_misses mmu ~cpu:0 + Mmu.cpu_dtlb_misses mmu ~cpu:1)

(* The same workload under the shadow checker: clean when shootdowns
   run, divergent when the fault injection skips them — the stale
   remote TLB is observable, not hypothetical. *)
let test_skip_shootdown_caught () =
  let run ~skip =
    Mmu.test_skip_shootdowns := (if skip then -1 else 0);
    Fun.protect
      ~finally:(fun () -> Mmu.test_skip_shootdowns := 0)
      (fun () ->
        let k = Kernel.boot ~machine:Machine.ppc604_185
            ~policy:Config.optimized_precise_flush ~seed:5 ~shadow:true
            ~cpus:2 () in
        exec_across_cpus k;
        match Kernel.shadow k with
        | None -> Alcotest.fail "shadow checker missing"
        | Some s -> Shadow.total_divergences s)
  in
  Alcotest.(check int) "clean run diverges nowhere" 0 (run ~skip:false);
  Alcotest.(check bool) "skipped shootdowns leave stale remote TLBs" true
    (run ~skip:true > 0)

(* Deferred shootdowns: a lazy context reset elides the remote page
   invalidations (VSIDs just die) but must still reload the segment
   registers of a remote CPU running the mm — counted, charged, and
   clean under the shadow checker. *)
let test_lazy_reset_defers () =
  let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized
      ~seed:5 ~shadow:true ~cpus:2 () in
  let text_pages = 8 and data_pages = 8 and stack_pages = 4 in
  let base = data_base ~text_pages in
  let a = Kernel.spawn k ~text_pages ~data_pages ~stack_pages () in
  Kernel.set_active_cpu k 0;
  Kernel.switch_to k a;
  Kernel.user_run k ~instrs:1_000;
  let b = Kernel.spawn_thread k ~peer:a in
  Kernel.set_active_cpu k 1;
  Kernel.switch_to k b;
  Kernel.touch k Mmu.Store base;
  (* back on CPU 0: a 32-page mmap is over the 20-page cutoff, so the
     range flush becomes a whole-context VSID reset *)
  Kernel.set_active_cpu k 0;
  ignore (Kernel.sys_mmap k ~pages:32 ~writable:true);
  let p = Kernel.perf k in
  Alcotest.(check bool) "reset took the lazy path" true
    (p.Perf.flush_context_resets >= 1);
  Alcotest.(check bool) "remote invalidations deferred" true
    (p.Perf.shootdowns_deferred >= 1);
  Alcotest.(check bool) "remote CPU got a segment-reload IPI" true
    (p.Perf.ipis_sent >= 1);
  Alcotest.(check int) "no per-page shootdown rounds" 0
    p.Perf.tlb_shootdowns;
  (* CPU 1 keeps running the renewed mm: its old TLB entries are dead
     VSIDs, every touch refaults cleanly *)
  Kernel.set_active_cpu k 1;
  Kernel.touch k Mmu.Store base;
  Kernel.user_run k ~instrs:1_000;
  (match Kernel.shadow k with
  | None -> Alcotest.fail "shadow checker missing"
  | Some s ->
      Alcotest.(check int) "shadow clean" 0 (Shadow.total_divergences s))

(* The wrap escape hatch at the kernel level: push the counter to the
   edge, churn a few processes, and the kernel must count the wrap and
   stay shadow-clean afterwards. *)
let test_kernel_level_wrap () =
  let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized
      ~seed:9 ~shadow:true () in
  V.unsafe_set_next (Kernel.vsid_alloc k) (V.ctx_space - 2);
  for _ = 1 to 4 do
    let t = Kernel.spawn k ~text_pages:4 ~data_pages:4 ~stack_pages:2 () in
    Kernel.switch_to k t;
    Kernel.user_run k ~instrs:1_000;
    Kernel.touch k Mmu.Store (data_base ~text_pages:4);
    Kernel.sys_exit k
  done;
  Alcotest.(check bool) "wrap counted" true
    ((Kernel.perf k).Perf.vsid_wraps >= 1);
  (match Kernel.shadow k with
  | None -> Alcotest.fail "shadow checker missing"
  | Some s ->
      Alcotest.(check int) "shadow clean across the wrap" 0
        (Shadow.total_divergences s))

(* A multi-CPU boot registers only while the kernel registry is armed:
   with nothing armed, nothing accumulates for a caller to drain. *)
let test_disarmed_registry_stays_empty () =
  ignore (Kernel.drain_smp_registered () : Kernel.t list);
  ignore
    (Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:3
       ~cpus:4 ()
      : Kernel.t);
  Alcotest.(check int) "nothing registered" 0
    (List.length (Kernel.drain_smp_registered ()))

let suite =
  [ Alcotest.test_case "cpus:1 boot is byte-identical" `Quick
      test_cpus1_identical;
    Alcotest.test_case "idle CPUs steal work" `Quick test_idle_steal;
    Alcotest.test_case "cross-CPU exec shoots down" `Quick
      test_cross_cpu_shootdowns;
    Alcotest.test_case "skipped shootdowns caught by shadow" `Quick
      test_skip_shootdown_caught;
    Alcotest.test_case "lazy reset defers shootdowns" `Quick
      test_lazy_reset_defers;
    Alcotest.test_case "kernel-level VSID wrap" `Quick
      test_kernel_level_wrap;
    Alcotest.test_case "disarmed registry stays empty" `Quick
      test_disarmed_registry_stays_empty ]
