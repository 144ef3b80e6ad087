(* The central correctness property of the whole simulator:

   after ANY sequence of address-space operations, under ANY policy and
   machine, every translation the MMU can produce for the current task
   agrees exactly with the Linux page tables (the authoritative map), and
   addresses the page tables do not map are unreachable.

   This is precisely the safety argument of §7's lazy flushing: zombie
   TLB/htab entries may linger physically valid, but "their VSIDs will
   not match any VSIDs used by any process so incorrect matches won't be
   made".  A bug in VSID recycling, flush cutoffs, htab eviction or TLB
   invalidation shows up here as a stale translation.

   At 2 and 4 CPUs the stream also migrates the current task and runs
   threads that touch and unmap from another CPU, so a skipped or
   mis-targeted shootdown leaves a stale remote TLB entry that a later
   access on that CPU meets. *)

open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Task = Kernel_sim.Task
module Pagetable = Kernel_sim.Pagetable
module Config = Mmu_tricks.Config

type op =
  | Op_touch of int       (* touch somewhere in an existing vma *)
  | Op_mmap_small
  | Op_mmap_large         (* above the flush cutoff *)
  | Op_munmap_oldest
  | Op_switch
  | Op_idle
  | Op_syscall
  | Op_exec
  | Op_fork_child_writes of int  (* COW: fork, child stores, child exits *)
  | Op_map_framebuffer
  | Op_migrate of int     (* SMP: the current task moves to another CPU *)
  | Op_thread of int      (* SMP: a thread of the current task touches and
                             unmaps from another CPU *)

let op_of_int n =
  match n mod 14 with
  | 0 | 1 | 2 | 3 | 4 -> Op_touch (n / 8)
  | 5 -> Op_mmap_small
  | 6 -> Op_mmap_large
  | 7 | 8 -> Op_munmap_oldest
  | 9 -> Op_switch
  | 10 -> Op_idle
  | 11 -> if n mod 24 = 11 then Op_exec else Op_syscall
  | 12 -> Op_fork_child_writes (n / 16)
  | 13 -> Op_map_framebuffer
  | _ -> assert false

(* The SMP stream: one op in six crosses CPUs, alternately a migrate and
   a thread. *)
let smp_op_of_int n =
  if n mod 6 <> 5 then op_of_int n
  else if n mod 12 = 5 then Op_migrate (n / 12)
  else Op_thread (n / 12)

let check_consistency k task =
  let mmu = Kernel.mmu k in
  let ok = ref true in
  Pagetable.iter (Mm.pagetable task.Task.mm) (fun ea w ->
      match Mmu.probe mmu Mmu.Load ea with
      | Some pa -> if Addr.rpn_of_pa pa <> Pagetable.rpn w then ok := false
      | None -> ok := false);
  !ok

let run_ops ~cpus ~machine ~policy ops =
  (* shadow on: every translation made along the way is also
     cross-checked against the reference MMU, for free *)
  let k = Kernel.boot ~machine ~policy ~seed:11 ~shadow:true ~cpus () in
  let a = Kernel.spawn k () in
  let b = Kernel.spawn k () in
  Kernel.switch_to k a;
  let live_maps = ref [] in
  let consistent = ref true in
  let current () = Option.get (Kernel.current k) in
  let cpu = ref 0 in
  let other_cpu salt = (!cpu + 1 + (salt mod (cpus - 1))) mod cpus in
  (* a real access, so a stale TLB entry on this CPU would answer it *)
  let segfaults ea =
    match Kernel.touch k Mmu.Load ea with
    | exception Kernel.Segfault _ -> true
    | () -> false
  in
  let touch_in_vmas salt =
    let task = current () in
    let vmas = Mm.vmas task.Task.mm in
    match vmas with
    | [] -> ()
    | _ ->
        let v = List.nth vmas (salt mod List.length vmas) in
        let page = salt mod v.Mm.va_pages in
        let ea = v.Mm.va_start + (page lsl Addr.page_shift) in
        let kind = if v.Mm.va_writable then Mmu.Store else Mmu.Load in
        Kernel.touch k kind ea
  in
  let apply op =
    match op with
    | Op_touch salt -> touch_in_vmas salt
    | Op_mmap_small ->
        if List.length !live_maps < 6 then begin
          let pages = 4 in
          let ea = Kernel.sys_mmap k ~pages ~writable:true in
          Kernel.touch k Mmu.Store ea;
          live_maps := (current (), ea, pages) :: !live_maps
        end
    | Op_mmap_large ->
        if List.length !live_maps < 6 then begin
          let pages = Policy.flush_cutoff_pages + 12 in
          let ea = Kernel.sys_mmap k ~pages ~writable:true in
          Kernel.touch k Mmu.Store (ea + Addr.page_size);
          live_maps := (current (), ea, pages) :: !live_maps
        end
    | Op_munmap_oldest -> begin
        match List.rev !live_maps with
        | (owner, ea, pages) :: _ when owner == current () ->
            Kernel.sys_munmap k ~ea ~pages;
            live_maps :=
              List.filter (fun (_, e, _) -> e <> ea) !live_maps;
            (* the unmapped range must be unreachable immediately *)
            if not (segfaults ea) then consistent := false
        | _ -> ()
      end
    | Op_switch ->
        let next = if current () == a then b else a in
        Kernel.switch_to k next
    | Op_idle -> Kernel.idle_for k ~cycles:20_000
    | Op_syscall -> Kernel.sys_null k
    | Op_exec ->
        (* exec drops this task's maps from our model *)
        let task = current () in
        live_maps := List.filter (fun (o, _, _) -> o != task) !live_maps;
        Kernel.sys_exec k ~text_pages:8 ~data_pages:8 ~stack_pages:4
    | Op_fork_child_writes salt -> begin
        let parent = current () in
        let child = Kernel.sys_fork k in
        Kernel.switch_to k child;
        (* exercise COW: write some parent pages from the child *)
        touch_in_vmas salt;
        touch_in_vmas (salt + 7);
        if not (check_consistency k child) then consistent := false;
        Kernel.sys_exit k;
        Kernel.switch_to k parent
      end
    | Op_map_framebuffer ->
        let task = current () in
        if task.Task.maps_framebuffer then begin
          (* unmap it: the aperture (and any dedicated BAT) must die *)
          Kernel.sys_munmap k ~ea:Mm.framebuffer_base ~pages:32;
          if not (segfaults Mm.framebuffer_base) then consistent := false
        end
        else begin
          let ea = Kernel.sys_map_framebuffer k ~pages:32 in
          Kernel.touch k Mmu.Store ea;
          Kernel.touch k Mmu.Store (ea + (31 * 4096))
        end
    | Op_migrate salt ->
        let task = current () in
        cpu := other_cpu salt;
        Kernel.set_active_cpu k !cpu;
        Kernel.switch_to k task
    | Op_thread salt ->
        (* the thread shares the owner's address space: what it unmaps
           on its CPU must be gone on the owner's too, by shootdown or
           by the lazy reset's segment reload *)
        let owner = current () and home = !cpu in
        Kernel.set_active_cpu k (other_cpu salt);
        let thread = Kernel.spawn_thread k ~peer:owner in
        Kernel.switch_to k thread;
        touch_in_vmas salt;
        let shared (o, _, _) = o.Task.mm == owner.Task.mm in
        let unmapped =
          match List.rev (List.filter shared !live_maps) with
          | ((_, ea, pages) as m) :: _ ->
              Kernel.sys_munmap k ~ea ~pages;
              live_maps := List.filter (fun m' -> m' != m) !live_maps;
              if not (segfaults ea) then consistent := false;
              Some ea
          | [] -> None
        in
        if not (check_consistency k thread) then consistent := false;
        Kernel.set_active_cpu k home;
        Option.iter
          (fun ea -> if not (segfaults ea) then consistent := false)
          unmapped
  in
  let op_of_int = if cpus = 1 then op_of_int else smp_op_of_int in
  List.iter
    (fun n ->
      apply (op_of_int n);
      if not (check_consistency k (current ())) then consistent := false)
    ops;
  (* final deep check on both tasks *)
  Kernel.switch_to k a;
  if not (check_consistency k a) then consistent := false;
  Kernel.switch_to k b;
  if not (check_consistency k b) then consistent := false;
  (match Kernel.shadow k with
  | Some sh -> if Shadow.total_divergences sh > 0 then consistent := false
  | None -> consistent := false);
  !consistent

let prop_on ~cpus ~name ~machine ~policy =
  QCheck.Test.make ~name ~count:15
    QCheck.(list_of_size (Gen.return 60) (int_bound 1_000_000))
    (fun ops -> run_ops ~cpus ~machine ~policy ops)

let prop = prop_on ~cpus:1

let suite =
  [ QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: optimized on 604"
         ~machine:Machine.ppc604_185 ~policy:Policy.optimized);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: baseline on 604"
         ~machine:Machine.ppc604_185 ~policy:Policy.baseline);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: precise flushing on 603"
         ~machine:Machine.ppc603_133 ~policy:Config.optimized_precise_flush);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: no htab on 603"
         ~machine:Machine.ppc603_180 ~policy:Config.optimized_no_htab);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: uncached page tables on 604"
         ~machine:Machine.ppc604_200 ~policy:Config.optimized_pt_uncached);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: cached idle clearing on 603"
         ~machine:Machine.ppc603_133 ~policy:Config.clearing_cached_list);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: per-process framebuffer BAT"
         ~machine:Machine.ppc604_185 ~policy:Config.optimized_fb_bat);
    QCheck_alcotest.to_alcotest
      (prop ~name:"oracle: idle cache lock + preload"
         ~machine:Machine.ppc603_180
         ~policy:
           { Config.optimized_idle_lock with
             Kernel_sim.Policy.cache_preload = true }) ]
  @ List.concat_map
      (fun cpus ->
        [ QCheck_alcotest.to_alcotest
            (prop_on ~cpus
               ~name:(Printf.sprintf "oracle: optimized on 604, %d CPUs" cpus)
               ~machine:Machine.ppc604_185 ~policy:Policy.optimized);
          QCheck_alcotest.to_alcotest
            (prop_on ~cpus
               ~name:
                 (Printf.sprintf "oracle: precise flushing on 604, %d CPUs"
                    cpus)
               ~machine:Machine.ppc604_185
               ~policy:Config.optimized_precise_flush) ])
      [ 2; 4 ]
