(* Kernel integration: boot, processes, syscalls, flush strategies. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Task = Kernel_sim.Task
module Vfs = Kernel_sim.Vfs
module V = Kernel_sim.Vsid_alloc

let boot ?(machine = Machine.ppc604_185) ?(policy = Policy.optimized) () =
  Kernel.boot ~machine ~policy ~seed:7 ()

let data_base = Mm.user_text_base + (16 lsl Addr.page_shift)

let test_boot_bat () =
  let k = boot ~policy:Policy.optimized () in
  Alcotest.(check bool) "ibat programmed" true
    (Bat.covers (Mmu.ibat (Kernel.mmu k)) 0xC0000000);
  Alcotest.(check bool) "dbat covers all ram" true
    (Bat.covers (Mmu.dbat (Kernel.mmu k)) 0xC1FFFFFF)

let test_boot_no_bat () =
  let k = boot ~policy:Policy.baseline () in
  Alcotest.(check bool) "no bat" false
    (Bat.covers (Mmu.dbat (Kernel.mmu k)) 0xC0000000)

let test_spawn_touch () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Alcotest.(check bool) "current set" true
    (match Kernel.current k with Some cur -> cur == t | None -> false);
  Kernel.touch k Mmu.Load data_base;
  Alcotest.(check int) "demand fault serviced" 1
    (Kernel.perf k).Perf.page_faults;
  Kernel.touch k Mmu.Load data_base;
  Alcotest.(check int) "no second fault" 1 (Kernel.perf k).Perf.page_faults

let test_segfault () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  (match Kernel.touch k Mmu.Load 0x30000000 with
  | exception Kernel.Segfault _ -> ()
  | () -> Alcotest.fail "expected segfault");
  (* store to the read-only text vma *)
  match Kernel.touch k Mmu.Store Mm.user_text_base with
  | exception Kernel.Segfault _ -> ()
  | () -> Alcotest.fail "expected write segfault"

let test_null_syscall_counts () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Kernel.sys_null k;
  Kernel.sys_null k;
  Alcotest.(check int) "syscalls counted" 2 (Kernel.perf k).Perf.syscalls

let test_kernel_tlb_share_bat () =
  (* §5.1: with the BAT mapping, kernel work leaves no kernel TLB entries;
     without it, the kernel competes for TLB slots. *)
  let share policy =
    let k = boot ~policy () in
    let t = Kernel.spawn k () in
    Kernel.switch_to k t;
    for _ = 1 to 20 do
      Kernel.sys_null k
    done;
    Kernel.kernel_tlb_entries k
  in
  Alcotest.(check int) "bat: zero kernel TLB entries" 0
    (share Policy.optimized);
  Alcotest.(check bool) "no bat: kernel present in TLB" true
    (share Policy.baseline > 0)

let test_mmap_munmap () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let ea = Kernel.sys_mmap k ~pages:4 ~writable:true in
  Alcotest.(check int) "arena address" Mm.user_mmap_base ea;
  Kernel.touch k Mmu.Store ea;
  Kernel.touch k Mmu.Store (ea + Addr.page_size);
  Alcotest.(check int) "two pages mapped + faulted" 2
    (Kernel.perf k).Perf.page_faults;
  let free_before = Kernel_sim.Physmem.free_frames (Kernel.physmem k) in
  Kernel.sys_munmap k ~ea ~pages:4;
  Alcotest.(check int) "frames freed" (free_before + 2)
    (Kernel_sim.Physmem.free_frames (Kernel.physmem k));
  match Kernel.touch k Mmu.Load ea with
  | exception Kernel.Segfault _ -> ()
  | () -> Alcotest.fail "unmapped range must segfault"

let test_munmap_errors () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  match Kernel.sys_munmap k ~ea:Mm.user_mmap_base ~pages:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "munmap of nothing must fail"

let frames_of mm =
  let acc = ref [] in
  Kernel_sim.Pagetable.iter (Mm.pagetable mm) (fun _ w ->
      acc := Kernel_sim.Pagetable.rpn w :: !acc);
  List.sort compare !acc

let frame_at mm ea =
  let w = Kernel_sim.Pagetable.find (Mm.pagetable mm) ~ea in
  if w < 0 then Alcotest.fail "expected a mapping";
  Kernel_sim.Pagetable.rpn w

let test_fork_cow () =
  let k = boot () in
  let parent = Kernel.spawn k () in
  Kernel.switch_to k parent;
  Kernel.touch k Mmu.Store data_base;
  Kernel.touch k Mmu.Store (data_base + Addr.page_size);
  let child = Kernel.sys_fork k in
  Alcotest.(check bool) "distinct pid" true
    (child.Task.pid <> parent.Task.pid);
  Alcotest.(check int) "mappings shared" 2 (Mm.mapped_pages child.Task.mm);
  (* copy-on-write: both sides reference the same frames, read-only *)
  Alcotest.(check (list int)) "same frames after fork"
    (frames_of parent.Task.mm)
    (frames_of child.Task.mm);
  (* reads do not break the sharing *)
  Kernel.switch_to k child;
  Kernel.touch k Mmu.Load data_base;
  Alcotest.(check int) "read keeps sharing"
    (frame_at parent.Task.mm data_base)
    (frame_at child.Task.mm data_base);
  (* a child store breaks exactly that page *)
  Kernel.touch k Mmu.Store data_base;
  Alcotest.(check bool) "store breaks sharing" true
    (frame_at child.Task.mm data_base <> frame_at parent.Task.mm data_base);
  Alcotest.(check int) "other page still shared"
    (frame_at parent.Task.mm (data_base + Addr.page_size))
    (frame_at child.Task.mm (data_base + Addr.page_size));
  (* the parent can write its (now private again) copy too *)
  Kernel.switch_to k parent;
  Kernel.touch k Mmu.Store data_base

let test_fork_cow_frame_conservation () =
  let k = boot () in
  let free0 = Kernel_sim.Physmem.free_frames (Kernel.physmem k) in
  let parent = Kernel.spawn k () in
  Kernel.switch_to k parent;
  for i = 0 to 3 do
    Kernel.touch k Mmu.Store (data_base + (i * Addr.page_size))
  done;
  let child = Kernel.sys_fork k in
  (* child writes two pages (breaking them), then everyone exits *)
  Kernel.switch_to k child;
  Kernel.touch k Mmu.Store data_base;
  Kernel.touch k Mmu.Store (data_base + Addr.page_size);
  Kernel.sys_exit k;
  Kernel.switch_to k parent;
  (* parent writes a page whose sharing died with the child *)
  Kernel.touch k Mmu.Store data_base;
  Kernel.sys_exit k;
  Alcotest.(check int) "no frame leaked or double-freed" free0
    (Kernel_sim.Physmem.free_frames (Kernel.physmem k))

let test_fork_shares_file_pages () =
  let k = boot () in
  let parent = Kernel.spawn k () in
  Kernel.switch_to k parent;
  let file = Vfs.create_file (Kernel.vfs k) ~name:"lib" ~pages:2 in
  let ea = Kernel.sys_mmap_file k file ~from_page:0 ~pages:2 ~writable:false in
  Kernel.touch k Mmu.Load ea;
  let child = Kernel.sys_fork k in
  let shared_frame mm =
    let acc = ref None in
    Kernel_sim.Pagetable.iter (Mm.pagetable mm) (fun _ w ->
        if Kernel_sim.Pagetable.shared w then
          acc := Some (Kernel_sim.Pagetable.rpn w));
    !acc
  in
  Alcotest.(check (option int)) "same page-cache frame"
    (shared_frame parent.Task.mm)
    (shared_frame child.Task.mm)

let test_exec_resets () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Kernel.touch k Mmu.Store data_base;
  let old_ctx = Mm.ctx t.Task.mm in
  Kernel.sys_exec k ~text_pages:4 ~data_pages:4 ~stack_pages:2;
  Alcotest.(check int) "address space emptied" 0
    (Mm.mapped_pages t.Task.mm);
  Alcotest.(check bool) "context renewed under lazy flushing" true
    (Mm.ctx t.Task.mm <> old_ctx);
  (* old image is gone; new image faults back in *)
  Kernel.touch k Mmu.Load Mm.user_text_base

let test_exit_releases () =
  let k = boot () in
  let free0 = Kernel_sim.Physmem.free_frames (Kernel.physmem k) in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Kernel.touch k Mmu.Store data_base;
  Kernel.touch k Mmu.Store (data_base + Addr.page_size);
  Kernel.sys_exit k;
  Alcotest.(check int) "all frames back" free0
    (Kernel_sim.Physmem.free_frames (Kernel.physmem k));
  Alcotest.(check bool) "no current" true (Kernel.current k = None);
  Alcotest.(check int) "task list empty" 0 (List.length (Kernel.tasks k));
  Alcotest.(check int) "context retired" 0
    (V.live_contexts (Kernel.vsid_alloc k))

let test_brk_grows_heap () =
  let k = boot () in
  let t = Kernel.spawn k ~text_pages:16 ~data_pages:8 ~stack_pages:8 () in
  Kernel.switch_to k t;
  let old_end = data_base + (8 lsl Addr.page_shift) in
  (match Kernel.touch k Mmu.Store old_end with
  | exception Kernel.Segfault _ -> ()
  | () -> Alcotest.fail "beyond the break must fault");
  let new_break = Kernel.sys_brk k ~pages:4 in
  Alcotest.(check int) "break advanced by four pages"
    (old_end + (4 lsl Addr.page_shift))
    new_break;
  (* the grown range is now usable *)
  Kernel.touch k Mmu.Store old_end;
  Kernel.touch k Mmu.Store (new_break - Addr.page_size);
  match Kernel.touch k Mmu.Store new_break with
  | exception Kernel.Segfault _ -> ()
  | () -> Alcotest.fail "beyond the new break must fault"

let test_brk_collision_rejected () =
  let k = boot () in
  let t = Kernel.spawn k ~text_pages:16 ~data_pages:8 ~stack_pages:8 () in
  Kernel.switch_to k t;
  (* grow the heap into the stack vma: must be refused *)
  let heap_to_stack_pages =
    (Mm.user_stack_top - (8 lsl Addr.page_shift) - data_base)
    lsr Addr.page_shift
  in
  match Kernel.sys_brk k ~pages:heap_to_stack_pages with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "brk into the stack must be rejected"

let test_pipe_data_flow () =
  let k = boot () in
  let a = Kernel.spawn k () and b = Kernel.spawn k () in
  let p = Kernel.new_pipe k in
  Kernel.switch_to k a;
  Alcotest.(check int) "write" 100
    (Kernel.sys_pipe_write k p ~buf:data_base ~bytes:100);
  Kernel.switch_to k b;
  Alcotest.(check int) "read" 100
    (Kernel.sys_pipe_read k p ~buf:data_base ~bytes:100);
  Alcotest.(check int) "empty read" 0
    (Kernel.sys_pipe_read k p ~buf:data_base ~bytes:1)

let test_file_write () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let file = Vfs.create_file (Kernel.vfs k) ~name:"out.o" ~pages:4 in
  Kernel.touch k Mmu.Store data_base;
  let idle0 = (Kernel.perf k).Perf.idle_cycles in
  Kernel.sys_file_write k file ~from_page:0 ~pages:4 ~buf:data_base;
  Alcotest.(check int) "writes never wait on disk" idle0
    (Kernel.perf k).Perf.idle_cycles;
  Alcotest.(check int) "pages resident afterwards" 4
    (Vfs.resident_pages file);
  (* reading back is warm *)
  let idle1 = (Kernel.perf k).Perf.idle_cycles in
  Kernel.sys_file_read k file ~from_page:0 ~pages:4 ~buf:data_base;
  Alcotest.(check int) "read-back warm" idle1 (Kernel.perf k).Perf.idle_cycles

let test_file_read_disk_wait () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let file = Vfs.create_file (Kernel.vfs k) ~name:"f" ~pages:2 in
  let buf = Kernel.sys_mmap k ~pages:2 ~writable:true in
  let idle0 = (Kernel.perf k).Perf.idle_cycles in
  Kernel.sys_file_read k file ~from_page:0 ~pages:2 ~buf;
  Alcotest.(check bool) "cold read waited on disk (idle)" true
    ((Kernel.perf k).Perf.idle_cycles
    >= idle0 + (2 * Kernel.disk_wait_cycles));
  let idle1 = (Kernel.perf k).Perf.idle_cycles in
  Kernel.sys_file_read k file ~from_page:0 ~pages:2 ~buf;
  Alcotest.(check int) "warm read has no disk wait" idle1
    (Kernel.perf k).Perf.idle_cycles

(* --- flush strategies -------------------------------------------------- *)

let test_precise_flush_searches_htab () =
  let k = boot ~policy:Mmu_tricks.Config.optimized_precise_flush () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let ea = Kernel.sys_mmap k ~pages:4 ~writable:true in
  let before = (Kernel.perf k).Perf.flush_pte_searches in
  Kernel.sys_munmap k ~ea ~pages:4;
  Alcotest.(check int) "one search per page in range" (before + 4)
    (Kernel.perf k).Perf.flush_pte_searches

let test_lazy_flush_resets_context () =
  let k = boot ~policy:Policy.optimized () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let big = Policy.flush_cutoff_pages + 10 in
  let resets0 = (Kernel.perf k).Perf.flush_context_resets in
  let searches0 = (Kernel.perf k).Perf.flush_pte_searches in
  let ea = Kernel.sys_mmap k ~pages:big ~writable:true in
  Kernel.sys_munmap k ~ea ~pages:big;
  Alcotest.(check bool) "context resets happened" true
    ((Kernel.perf k).Perf.flush_context_resets > resets0);
  Alcotest.(check int) "no per-page searches" searches0
    (Kernel.perf k).Perf.flush_pte_searches

let test_lazy_below_cutoff_is_precise () =
  let k = boot ~policy:Policy.optimized () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let small = Policy.flush_cutoff_pages - 5 in
  let resets0 = (Kernel.perf k).Perf.flush_context_resets in
  let ea = Kernel.sys_mmap k ~pages:small ~writable:true in
  Kernel.sys_munmap k ~ea ~pages:small;
  Alcotest.(check int) "no context reset below cutoff" resets0
    (Kernel.perf k).Perf.flush_context_resets;
  Alcotest.(check bool) "precise searches instead" true
    ((Kernel.perf k).Perf.flush_pte_searches >= 2 * small)

let test_lazy_flush_correctness () =
  (* After a lazy whole-context flush, the old translations must be
     unreachable and fresh ones must be correct. *)
  let k = boot ~policy:Policy.optimized () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let big = Policy.flush_cutoff_pages + 10 in
  let ea = Kernel.sys_mmap k ~pages:big ~writable:true in
  Kernel.touch k Mmu.Store ea;
  let pa_before = Mmu.probe (Kernel.mmu k) Mmu.Load ea in
  Kernel.sys_munmap k ~ea ~pages:big;
  Alcotest.(check (option int)) "old mapping unreachable" None
    (Mmu.probe (Kernel.mmu k) Mmu.Load ea);
  (* map a new range; it must resolve to a fresh frame *)
  let ea2 = Kernel.sys_mmap k ~pages:big ~writable:true in
  Alcotest.(check bool) "arena bumps upward" true (ea2 > ea);
  Kernel.touch k Mmu.Store ea2;
  let pa_after = Mmu.probe (Kernel.mmu k) Mmu.Load ea2 in
  Alcotest.(check bool) "new mapping resolves" true (pa_after <> None);
  ignore pa_before

let test_ops_require_current_task () =
  let k = boot () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "must require a current task"
  in
  expect_invalid (fun () -> Kernel.sys_mmap k ~pages:1 ~writable:true);
  expect_invalid (fun () -> Kernel.sys_fork k);
  expect_invalid (fun () -> Kernel.sys_exit k);
  expect_invalid (fun () -> Kernel.sys_brk k ~pages:1)

let test_oom_raises_and_recovers () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  (* exhaust memory with one huge mapping... *)
  let free = Kernel_sim.Physmem.free_frames (Kernel.physmem k) in
  let pages = free + 64 in
  let ea = Kernel.sys_mmap k ~pages ~writable:true in
  (match
     for i = 0 to pages - 1 do
       Kernel.touch k Mmu.Store (ea + (i * Addr.page_size))
     done
   with
  | exception Kernel_sim.Pagetable.Out_of_frames -> ()
  | () -> Alcotest.fail "expected Out_of_frames");
  (* ...then release it and confirm the system still works *)
  Kernel.sys_munmap k ~ea ~pages;
  let ea2 = Kernel.sys_mmap k ~pages:8 ~writable:true in
  Kernel.touch k Mmu.Store ea2;
  Kernel.sys_exit k;
  Alcotest.(check bool) "most frames recovered" true
    (Kernel_sim.Physmem.free_frames (Kernel.physmem k) >= free - 16)

let test_idle_slice_progress () =
  let k = boot () in
  let c0 = Kernel.cycles k in
  Kernel.idle_slice k;
  Alcotest.(check bool) "cycles advance" true (Kernel.cycles k > c0);
  let target = Kernel.cycles k + 5000 in
  Kernel.idle_for k ~cycles:5000;
  Alcotest.(check bool) "idle_for reaches target" true
    (Kernel.cycles k >= target)

let test_idle_reclaim_clears_zombies () =
  let k = boot ~policy:Policy.optimized () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  (* create zombies: touch pages then lazily flush them *)
  let big = Policy.flush_cutoff_pages + 20 in
  let ea = Kernel.sys_mmap k ~pages:big ~writable:true in
  for i = 0 to big - 1 do
    Kernel.touch k Mmu.Store (ea + (i lsl Addr.page_shift))
  done;
  Kernel.sys_munmap k ~ea ~pages:big;
  let _, zombies = Kernel.htab_live_and_zombie k in
  Alcotest.(check bool) "zombies exist" true (zombies > 0);
  (* run the idle task long enough to sweep the whole htab *)
  Kernel.idle_for k ~cycles:3_000_000;
  let _, zombies' = Kernel.htab_live_and_zombie k in
  Alcotest.(check int) "idle reclaim swept them" 0 zombies';
  Alcotest.(check bool) "counted" true
    ((Kernel.perf k).Perf.zombies_reclaimed >= zombies)

let test_user_run_faults_text () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Kernel.user_run k ~instrs:800;
  Alcotest.(check bool) "text pages faulted in" true
    ((Kernel.perf k).Perf.page_faults >= 1);
  Alcotest.(check bool) "instructions charged" true
    ((Kernel.perf k).Perf.instructions >= 800)

(* A munmap whose size does not match the vma is rejected before it
   changes anything: the vma is still found and its pages still map. *)
let test_munmap_wrong_size_keeps_vma () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let ea = Kernel.sys_mmap k ~pages:4 ~writable:true in
  Kernel.touch k Mmu.Store ea;
  (match Kernel.sys_munmap k ~ea ~pages:3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "wrong-size munmap must fail");
  Alcotest.(check bool) "vma still found" true
    (Option.is_some (Mm.find_vma t.Task.mm ea));
  Kernel.touch k Mmu.Load ea;
  Kernel.sys_munmap k ~ea ~pages:4;
  Alcotest.(check bool) "right-size munmap removes it" true
    (Option.is_none (Mm.find_vma t.Task.mm ea))

(* Neither munmap error opens the span's syscall window, so the next
   syscall's window opens and closes and its cost lands on the
   request. *)
let test_rejected_munmap_keeps_spans_balanced () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let ea = Kernel.sys_mmap k ~pages:4 ~writable:true in
  let sp = Kernel.span k in
  Span.enable sp;
  let rid = Span.request_begin sp ~cls:0 ~arrival:(Kernel.cycles k) in
  Span.set_current_request sp rid;
  List.iter
    (fun (ea, pages) ->
      match Kernel.sys_munmap k ~ea ~pages with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "munmap must be rejected")
    [ (ea, 3); (ea + Addr.page_size, 1) ];
  Kernel.sys_null k;
  let q = Span.request sp rid in
  Alcotest.(check int) "one syscall window, the null syscall's" 1
    q.Span.q_syscalls;
  Alcotest.(check bool) "its cost charged" true (q.Span.q_syscall_cost > 0)

(* Every rejected call is rejected before it enters: it adds no cycle,
   counts no syscall and leaves the request's span window closed, so the
   next null syscall's window records exactly that call's cost.  Each
   case arms its call on a fresh kernel, with or without a current
   task. *)
let test_rejected_calls_charge_nothing () =
  let heap_to_stack_pages =
    (Mm.user_stack_top - (8 lsl Addr.page_shift) - data_base)
    lsr Addr.page_shift
  in
  let cases =
    [ ( "brk into the stack", true,
        fun k () -> ignore (Kernel.sys_brk k ~pages:heap_to_stack_pages) );
      ( "wrong-size munmap", true,
        fun k ->
          let ea = Kernel.sys_mmap k ~pages:4 ~writable:true in
          fun () -> Kernel.sys_munmap k ~ea ~pages:3 );
      ( "mmap larger than the mmap window", true,
        fun k () ->
          ignore (Kernel.sys_mmap k ~pages:(1 lsl 18) ~writable:true) );
      ( "mmap with no task", false,
        fun k () -> ignore (Kernel.sys_mmap k ~pages:1 ~writable:true) );
      ( "mmap_file with no task", false,
        fun k ->
          let file = Vfs.create_file (Kernel.vfs k) ~name:"f" ~pages:1 in
          fun () ->
            ignore
              (Kernel.sys_mmap_file k file ~from_page:0 ~pages:1
                 ~writable:false) );
      ( "map_framebuffer with no task", false,
        fun k () -> ignore (Kernel.sys_map_framebuffer k ~pages:32) );
      ( "map_framebuffer of no pages", true,
        fun k () -> ignore (Kernel.sys_map_framebuffer k ~pages:0) );
      ( "map_framebuffer larger than the aperture", true,
        fun k () ->
          ignore
            (Kernel.sys_map_framebuffer k
               ~pages:((Mm.framebuffer_bytes lsr Addr.page_shift) + 1)) );
      ( "brk with no task", false,
        fun k () -> ignore (Kernel.sys_brk k ~pages:1) );
      ("fork with no task", false, fun k () -> ignore (Kernel.sys_fork k));
      ( "exec with no task", false,
        fun k () ->
          Kernel.sys_exec k ~text_pages:4 ~data_pages:4 ~stack_pages:2 );
      ("exit with no task", false, fun k () -> Kernel.sys_exit k) ]
  in
  List.iter
    (fun (name, with_task, arm) ->
      let k = boot () in
      if with_task then Kernel.switch_to k (Kernel.spawn k ());
      let call = arm k in
      let sp = Kernel.span k in
      Span.enable sp;
      let rid = Span.request_begin sp ~cls:0 ~arrival:(Kernel.cycles k) in
      Span.set_current_request sp rid;
      let cycles0 = Kernel.cycles k in
      let calls0 = (Kernel.perf k).Perf.syscalls in
      (match call () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail (name ^ ": must be rejected"));
      Alcotest.(check int) (name ^ ": no cycle charged") cycles0
        (Kernel.cycles k);
      Alcotest.(check int) (name ^ ": no syscall counted") calls0
        (Kernel.perf k).Perf.syscalls;
      Kernel.sys_null k;
      let q = Span.request sp rid in
      Alcotest.(check int) (name ^ ": one window, the null syscall's") 1
        q.Span.q_syscalls;
      Alcotest.(check int) (name ^ ": it records the null syscall's cost")
        (Kernel.cycles k - cycles0) q.Span.q_syscall_cost)
    cases

(* A call that raises inside its body still closes its window: the
   window records the call's cost up to the raise, and the next null
   syscall's window records its own. *)
let test_raising_calls_close_the_window () =
  let cases =
    [ ( "pipe write from an unmapped buffer",
        (fun _ -> ()),
        fun k ->
          let p = Kernel.new_pipe k in
          match Kernel.sys_pipe_write k p ~buf:0x30000000 ~bytes:100 with
          | exception Kernel.Segfault _ -> ()
          | _ -> Alcotest.fail "expected a segfault" );
      ( "cold file read with no free frame",
        (fun k ->
          while Kernel_sim.Physmem.alloc (Kernel.physmem k) <> None do
            ()
          done),
        fun k ->
          let file = Vfs.create_file (Kernel.vfs k) ~name:"f" ~pages:1 in
          match
            Kernel.sys_file_read k file ~from_page:0 ~pages:1 ~buf:data_base
          with
          | exception Kernel_sim.Pagetable.Out_of_frames -> ()
          | () -> Alcotest.fail "expected Out_of_frames" ) ]
  in
  List.iter
    (fun (name, setup, call) ->
      let k = boot () in
      Kernel.switch_to k (Kernel.spawn k ());
      setup k;
      let sp = Kernel.span k in
      Span.enable sp;
      let rid = Span.request_begin sp ~cls:0 ~arrival:(Kernel.cycles k) in
      Span.set_current_request sp rid;
      let cycles0 = Kernel.cycles k in
      call k;
      let raised = (Span.request sp rid).Span.q_syscall_cost in
      Alcotest.(check int) (name ^ ": its window closed on its cost")
        (Kernel.cycles k - cycles0) raised;
      let cycles1 = Kernel.cycles k in
      Kernel.sys_null k;
      let q = Span.request sp rid in
      Alcotest.(check int) (name ^ ": two windows") 2 q.Span.q_syscalls;
      Alcotest.(check int) (name ^ ": the null syscall's cost recorded")
        (Kernel.cycles k - cycles1)
        (q.Span.q_syscall_cost - raised))
    cases

(* munmap gives its address space back: a task that maps 24 pages,
   touches the first and the last and unmaps them, 12,000 times (288,000
   pages, more than the 1 GB mmap window holds), never runs out, and past
   the window's end the arena starts again from its base. *)
let test_mmap_window_is_reused () =
  let k = boot () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let pages = 24 in
  let stack_start = Mm.user_stack_top - (8 lsl Addr.page_shift) in
  let from_base = ref 0 in
  for _ = 1 to 12_000 do
    let ea = Kernel.sys_mmap k ~pages ~writable:true in
    if ea = Mm.user_mmap_base then incr from_base;
    if ea < Mm.user_mmap_base || ea + (pages lsl Addr.page_shift) > stack_start
    then Alcotest.failf "range at 0x%x leaves the mmap window" ea;
    Kernel.touch k Mmu.Store ea;
    Kernel.touch k Mmu.Store (ea + ((pages - 1) lsl Addr.page_shift));
    Kernel.sys_munmap k ~ea ~pages
  done;
  Alcotest.(check int) "the arena restarted from its base once" 2 !from_base

(* The frame-buffer aperture is never part of the mmap arena: a 512 MB
   mapping fills the arena up to the aperture, the next mapping lands past
   it, and the frame buffer still maps.  Mapping it a second time is
   rejected before the call enters. *)
let test_mmap_arena_skips_framebuffer () =
  let k = boot () in
  Kernel.switch_to k (Kernel.spawn k ());
  let big = Kernel.sys_mmap k ~pages:131072 ~writable:true in
  Alcotest.(check int) "the big mapping starts the arena" Mm.user_mmap_base
    big;
  let next = Kernel.sys_mmap k ~pages:32 ~writable:true in
  Alcotest.(check int) "the next one lands past the aperture"
    (Mm.framebuffer_base + Mm.framebuffer_bytes)
    next;
  Alcotest.(check int) "the frame buffer maps" Mm.framebuffer_base
    (Kernel.sys_map_framebuffer k ~pages:16);
  let cycles0 = Kernel.cycles k in
  let calls0 = (Kernel.perf k).Perf.syscalls in
  (match Kernel.sys_map_framebuffer k ~pages:16 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a second frame-buffer map must be rejected");
  Alcotest.(check int) "no cycle charged" cycles0 (Kernel.cycles k);
  Alcotest.(check int) "no syscall counted" calls0
    (Kernel.perf k).Perf.syscalls

(* Lazy flushing is the counter VSID source: with PID-derived VSIDs the
   optimized kernel flushes a munmap above the cutoff page by page, and
   with the counter it resets the context instead. *)
let test_pid_vsids_flush_precisely () =
  let big = Policy.flush_cutoff_pages + 10 in
  let unmap_big policy =
    let k = boot ~policy () in
    Kernel.switch_to k (Kernel.spawn k ());
    let ea = Kernel.sys_mmap k ~pages:big ~writable:true in
    let p = Kernel.perf k in
    let searches0 = p.Perf.flush_pte_searches
    and resets0 = p.Perf.flush_context_resets in
    Kernel.sys_munmap k ~ea ~pages:big;
    (p.Perf.flush_pte_searches - searches0,
     p.Perf.flush_context_resets - resets0)
  in
  let searches, resets =
    unmap_big { Policy.optimized with Policy.vsid_source = V.Pid_based }
  in
  Alcotest.(check int) "pid VSIDs: one search per page" big searches;
  Alcotest.(check int) "pid VSIDs: no context reset" 0 resets;
  let searches, resets = unmap_big Policy.optimized in
  Alcotest.(check int) "counter VSIDs: no per-page search" 0 searches;
  Alcotest.(check bool) "counter VSIDs: the context resets" true (resets > 0)

let suite =
  [ Alcotest.test_case "boot programs BATs" `Quick test_boot_bat;
    Alcotest.test_case "boot without BATs" `Quick test_boot_no_bat;
    Alcotest.test_case "spawn and demand fault" `Quick test_spawn_touch;
    Alcotest.test_case "segfaults" `Quick test_segfault;
    Alcotest.test_case "syscall counting" `Quick test_null_syscall_counts;
    Alcotest.test_case "kernel TLB share vs BAT (§5.1)" `Quick
      test_kernel_tlb_share_bat;
    Alcotest.test_case "mmap/munmap" `Quick test_mmap_munmap;
    Alcotest.test_case "munmap errors" `Quick test_munmap_errors;
    Alcotest.test_case "fork is copy-on-write" `Quick test_fork_cow;
    Alcotest.test_case "COW conserves frames" `Quick
      test_fork_cow_frame_conservation;
    Alcotest.test_case "fork shares page cache" `Quick
      test_fork_shares_file_pages;
    Alcotest.test_case "exec resets the image" `Quick test_exec_resets;
    Alcotest.test_case "exit releases resources" `Quick test_exit_releases;
    Alcotest.test_case "brk grows the heap" `Quick test_brk_grows_heap;
    Alcotest.test_case "brk collision rejected" `Quick
      test_brk_collision_rejected;
    Alcotest.test_case "pipe data flow" `Quick test_pipe_data_flow;
    Alcotest.test_case "file write" `Quick test_file_write;
    Alcotest.test_case "file read disk wait" `Quick test_file_read_disk_wait;
    Alcotest.test_case "precise flush searches htab" `Quick
      test_precise_flush_searches_htab;
    Alcotest.test_case "lazy flush resets context (§7)" `Quick
      test_lazy_flush_resets_context;
    Alcotest.test_case "below cutoff stays precise (§7)" `Quick
      test_lazy_below_cutoff_is_precise;
    Alcotest.test_case "lazy flush correctness (§7)" `Quick
      test_lazy_flush_correctness;
    Alcotest.test_case "ops require a current task" `Quick
      test_ops_require_current_task;
    Alcotest.test_case "OOM raises and recovers" `Quick
      test_oom_raises_and_recovers;
    Alcotest.test_case "idle slice progress" `Quick test_idle_slice_progress;
    Alcotest.test_case "idle reclaim clears zombies (§7)" `Quick
      test_idle_reclaim_clears_zombies;
    Alcotest.test_case "user_run faults text" `Quick
      test_user_run_faults_text;
    Alcotest.test_case "wrong-size munmap keeps the vma" `Quick
      test_munmap_wrong_size_keeps_vma;
    Alcotest.test_case "rejected munmaps keep the syscall window balanced"
      `Quick test_rejected_munmap_keeps_spans_balanced;
    Alcotest.test_case "rejected calls charge nothing and open no window"
      `Quick test_rejected_calls_charge_nothing;
    Alcotest.test_case "a raising call closes its window" `Quick
      test_raising_calls_close_the_window;
    Alcotest.test_case "munmap returns address space to the mmap window"
      `Quick test_mmap_window_is_reused;
    Alcotest.test_case "the mmap arena skips the frame-buffer aperture"
      `Quick test_mmap_arena_skips_framebuffer;
    Alcotest.test_case "pid VSIDs flush precisely above the cutoff (§7)"
      `Quick test_pid_vsids_flush_precisely ]
