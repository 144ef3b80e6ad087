(* Edge cases and stress across the substrate. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Pipe = Kernel_sim.Pipe
module Physmem = Kernel_sim.Physmem

let test_addr_extremes () =
  Alcotest.(check int) "top of memory sr" 0xF (Addr.sr_index 0xFFFFFFFF);
  Alcotest.(check int) "top page index" 0xFFFF (Addr.page_index 0xFFFFFFFF);
  Alcotest.(check int) "top offset" 0xFFF (Addr.page_offset 0xFFFFFFFF);
  Alcotest.(check int) "zero splits to zero" 0 (Addr.sr_index 0);
  Alcotest.(check int) "page base of top" 0xFFFFF000
    (Addr.page_base 0xFFFFFFFF)

let test_bat_largest_block () =
  let b = Bat.create () in
  Bat.set b ~index:0 ~base_ea:0 ~length:Bat.max_block ~phys_base:0;
  Alcotest.(check (option int)) "256MB block end"
    (Some (Bat.max_block - 1))
    (Bat.translate b (Bat.max_block - 1));
  Alcotest.(check (option int)) "just past" None
    (Bat.translate b Bat.max_block)

let test_direct_mapped_cache () =
  let c = Cache.create ~bytes:1024 ~ways:1 in
  Alcotest.(check int) "32 lines" 32 (Cache.capacity_lines c);
  (* two addresses one cache-size apart conflict in a direct map *)
  ignore (Cache.access c ~source:Cache.User ~inhibited:false ~write:false 0
           : Cache.result);
  ignore (Cache.access c ~source:Cache.User ~inhibited:false ~write:false 1024
           : Cache.result);
  Alcotest.(check bool) "first evicted" false (Cache.contains c 0);
  Alcotest.(check bool) "second resident" true (Cache.contains c 1024)

let test_single_way_tlb () =
  let t = Tlb.create ~sets:1 ~ways:1 () in
  Tlb.insert t { Tlb.vpn = 1; rpn = 1; inhibited = false; writable = true };
  Tlb.insert t { Tlb.vpn = 2; rpn = 2; inhibited = false; writable = true };
  Alcotest.(check int) "only one entry" 1 (Tlb.occupancy t);
  Alcotest.(check bool) "latest wins" true (Tlb.lookup t 2 <> None)

let test_minimal_htab () =
  (* 16 PTEs = 2 PTEGs: primary and secondary are each other's overflow *)
  let h = Htab.create ~n_ptes:16 () in
  Alcotest.(check int) "two PTEGs" 2 (Htab.n_ptegs h);
  let rng = Rng.create ~seed:1 in
  for i = 0 to 31 do
    ignore
      (Htab.insert h ~rng ~vsid:i ~page_index:0 ~rpn:i
         ~wimg:Pte.wimg_default ~protection:Pte.Read_write
         ~on_run:(fun _ _ -> ())
        : int)
  done;
  Alcotest.(check int) "full but never over" 16 (Htab.occupancy h)

let test_pipe_index_wraps () =
  (* kernel pipe buffers wrap at 64: two pipes 64 apart share a buffer
     address, which is a modeling choice, not a crash *)
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:1 ()
  in
  let pipes = List.init 70 (fun _ -> Kernel.new_pipe k) in
  Alcotest.(check int) "seventy pipes created" 70 (List.length pipes);
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  let buf = Kernel_sim.Mm.user_text_base + (16 * Addr.page_size) in
  List.iteri
    (fun i p ->
      if i mod 7 = 0 then begin
        ignore (Kernel.sys_pipe_write k p ~buf ~bytes:32 : int);
        ignore (Kernel.sys_pipe_read k p ~buf ~bytes:32 : int)
      end)
    pipes

let test_zero_byte_pipe_ops () =
  let p = Pipe.create ~index:0 in
  Alcotest.(check int) "zero write" 0 (Pipe.write p ~bytes:0);
  Alcotest.(check int) "zero read" 0 (Pipe.read p ~bytes:0)

let test_repeated_benchmarks_conserve_frames () =
  (* run the pipe benchmark three times on one kernel: no frame leak *)
  let k =
    Kernel.boot ~machine:Machine.ppc604_133 ~policy:Policy.optimized ~seed:2 ()
  in
  let free0 = Physmem.free_frames (Kernel.physmem k) in
  for _ = 1 to 3 do
    ignore (Workloads.Lmbench.pipe_latency_us k : float)
  done;
  Alcotest.(check int) "frames conserved across reruns" free0
    (Physmem.free_frames (Kernel.physmem k))

let test_many_process_generations () =
  (* churn 60 process generations: VSIDs retire, frames recycle *)
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:3 ()
  in
  let free0 = Physmem.free_frames (Kernel.physmem k) in
  let data = Kernel_sim.Mm.user_text_base + (16 * Addr.page_size) in
  for _ = 1 to 60 do
    let t = Kernel.spawn k () in
    Kernel.switch_to k t;
    Kernel.user_run k ~instrs:500;
    Kernel.touch k Mmu.Store data;
    Kernel.sys_exit k
  done;
  Alcotest.(check int) "frames conserved over generations" free0
    (Physmem.free_frames (Kernel.physmem k));
  Alcotest.(check int) "no live contexts" 0
    (Kernel_sim.Vsid_alloc.live_contexts (Kernel.vsid_alloc k))

let test_tiny_ram_machine () =
  (* a machine with 8 MB still boots and runs (the reserved 4 MB image
     leaves ~1000 frames) *)
  let machine =
    { Machine.ppc604_185 with
      Machine.name = "tiny";
      ram_bytes = 8 * 1024 * 1024 }
  in
  let k = Kernel.boot ~machine ~policy:Policy.optimized ~seed:4 () in
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Kernel.user_run k ~instrs:1000;
  Kernel.touch k Mmu.Store (Kernel_sim.Mm.user_text_base + (16 * Addr.page_size));
  Kernel.sys_exit k

(* --- failure injection: OOM in the middle of compound operations --- *)

let tiny_machine =
  { Machine.ppc604_185 with
    Machine.name = "tiny";
    ram_bytes = 5 * 1024 * 1024 (* ~256 usable frames after the image *) }

let test_oom_during_fork () =
  let k = Kernel.boot ~machine:tiny_machine ~policy:Policy.optimized ~seed:5 () in
  let parent = Kernel.spawn k ~data_pages:64 () in
  Kernel.switch_to k parent;
  let data = Kernel_sim.Mm.user_text_base + (16 * Addr.page_size) in
  for i = 0 to 63 do
    Kernel.touch k Mmu.Store (data + (i * Addr.page_size))
  done;
  (* eat almost all remaining frames so the fork's page-table pages (or a
     later COW break) cannot be satisfied *)
  let hog = Kernel.sys_mmap k ~pages:300 ~writable:true in
  (try
     for i = 0 to 299 do
       Kernel.touch k Mmu.Store (hog + (i * Addr.page_size))
     done
   with Kernel_sim.Pagetable.Out_of_frames -> ());
  (* fork itself is cheap under COW; a child write must either succeed or
     fail cleanly with Out_of_frames *)
  (match Kernel.sys_fork k with
  | child -> begin
      Kernel.switch_to k child;
      (match Kernel.touch k Mmu.Store data with
      | () -> ()
      | exception Kernel_sim.Pagetable.Out_of_frames -> ());
      Kernel.sys_exit k;
      Kernel.switch_to k parent
    end
  | exception Kernel_sim.Pagetable.Out_of_frames -> ());
  (* the parent's world is still consistent: it can read its data and
     exit; every non-hog frame comes back *)
  Kernel.touch k Mmu.Load data;
  Kernel.sys_exit k;
  Alcotest.(check bool) "system survives mid-operation OOM" true
    (Physmem.free_frames (Kernel.physmem k) > 0)

let test_oom_during_cow_break_is_clean () =
  let k = Kernel.boot ~machine:tiny_machine ~policy:Policy.optimized ~seed:6 () in
  let parent = Kernel.spawn k ~data_pages:32 () in
  Kernel.switch_to k parent;
  let data = Kernel_sim.Mm.user_text_base + (16 * Addr.page_size) in
  for i = 0 to 31 do
    Kernel.touch k Mmu.Store (data + (i * Addr.page_size))
  done;
  let child = Kernel.sys_fork k in
  (* exhaust memory *)
  let hog = Kernel.sys_mmap k ~pages:400 ~writable:true in
  (try
     for i = 0 to 399 do
       Kernel.touch k Mmu.Store (hog + (i * Addr.page_size))
     done
   with Kernel_sim.Pagetable.Out_of_frames -> ());
  (* now a COW break in the child cannot allocate its private copy *)
  Kernel.switch_to k child;
  (match Kernel.touch k Mmu.Store data with
  | () -> ()  (* a frame happened to be free: fine *)
  | exception Kernel_sim.Pagetable.Out_of_frames ->
      (* reads must still work: the shared frame is intact *)
      Kernel.touch k Mmu.Load data);
  Kernel.sys_exit k;
  Kernel.switch_to k parent;
  (* parent's data is untouched and readable *)
  Kernel.touch k Mmu.Load data;
  Kernel.sys_exit k

(* --- translation edges, through every reload backend --------------- *)

let translation_backends =
  [ ("604 hw-search", Machine.ppc604_185, Mmu.default_knobs);
    ("603 sw-htab", Machine.ppc603_133, Mmu.default_knobs);
    ( "603 sw-direct",
      Machine.ppc603_133,
      { Mmu.default_knobs with Mmu.use_htab = false } ) ]

let check_ok name expected = function
  | Mmu.Ok pa -> Alcotest.(check int) name expected pa
  | Mmu.Fault -> Alcotest.fail (name ^ ": unexpected fault")

let check_fault name = function
  | Mmu.Fault -> ()
  | Mmu.Ok _ -> Alcotest.fail (name ^ ": expected fault")

let test_segment_boundary_translation () =
  (* the 0xB/0xC seam: the last user page and the first kernel page are
     one byte apart but live in different segments with different VSIDs;
     access and probe must agree on both sides, on every backend *)
  List.iter
    (fun (name, machine, knobs) ->
      let mmu, mappings, _, sh = Test_shadow.make_shadowed ~machine ~knobs () in
      let last_user = 0xBFFFF000 and first_kernel = 0xC0000000 in
      Test_mmu.map mappings ~ea:last_user ~rpn:0x111;
      Test_mmu.map mappings ~ea:first_kernel ~rpn:0x222;
      check_ok (name ^ ": last user byte")
        (Addr.pa_of ~rpn:0x111 ~ea:0xBFFFFFFF)
        (Mmu.access mmu Mmu.Load 0xBFFFFFFF);
      check_ok (name ^ ": first kernel byte")
        (Addr.pa_of ~rpn:0x222 ~ea:first_kernel)
        (Mmu.access mmu Mmu.Load first_kernel);
      Alcotest.(check (option int)) (name ^ ": probe last user")
        (Some (Addr.pa_of ~rpn:0x111 ~ea:0xBFFFFFFF))
        (Mmu.probe mmu Mmu.Load 0xBFFFFFFF);
      Alcotest.(check (option int)) (name ^ ": probe first kernel")
        (Some (Addr.pa_of ~rpn:0x222 ~ea:first_kernel))
        (Mmu.probe mmu Mmu.Load first_kernel);
      (* distinct VSIDs: the two sides of the seam must not alias *)
      let seg = Mmu.segments mmu in
      Alcotest.(check bool) (name ^ ": VSIDs differ across the seam") true
        (Segment.vsid_for seg 0xBFFFFFFF <> Segment.vsid_for seg first_kernel);
      Alcotest.(check int) (name ^ ": shadow agrees throughout") 0
        (Shadow.total_divergences sh))
    translation_backends

let test_bat_edge_translation () =
  (* the last byte inside a BAT block translates via the BAT; the first
     byte past it falls through to the page machinery *)
  List.iter
    (fun (name, machine, knobs) ->
      let mmu, mappings, perf, sh = Test_shadow.make_shadowed ~machine ~knobs () in
      let block = 8 * 1024 * 1024 in
      Bat.set (Mmu.dbat mmu) ~index:0 ~base_ea:0xC0000000 ~length:block
        ~phys_base:0x01000000;
      let last = 0xC0000000 + block - 1 in
      check_ok (name ^ ": last BAT byte")
        (0x01000000 + block - 1)
        (Mmu.access mmu Mmu.Load last);
      Alcotest.(check (option int)) (name ^ ": probe last BAT byte")
        (Some (0x01000000 + block - 1))
        (Mmu.probe mmu Mmu.Load last);
      Alcotest.(check int) (name ^ ": BAT bypasses the TLB") 0
        (Perf.tlb_lookups perf);
      (* one page past the block: page-translated, not BAT *)
      let past = 0xC0000000 + block in
      Test_mmu.map mappings ~ea:past ~rpn:0x333;
      check_ok (name ^ ": first byte past the block")
        (Addr.pa_of ~rpn:0x333 ~ea:past)
        (Mmu.access mmu Mmu.Load past);
      Alcotest.(check bool) (name ^ ": past-the-end used the TLB path") true
        (Perf.tlb_lookups perf > 0);
      Alcotest.(check int) (name ^ ": shadow agrees throughout") 0
        (Shadow.total_divergences sh))
    translation_backends

let test_store_to_readonly_per_backend () =
  (* both fault paths — at TLB reload and at a warm TLB hit — and the
     probe oracle, per backend *)
  List.iter
    (fun (name, machine, knobs) ->
      let mmu, mappings, _, sh = Test_shadow.make_shadowed ~machine ~knobs () in
      let ea = 0x01800000 in
      Test_mmu.map_ro mappings ~ea ~rpn:0x9;
      check_fault (name ^ ": store on the reload path")
        (Mmu.access mmu Mmu.Store ea);
      check_ok (name ^ ": load still fine")
        (Addr.pa_of ~rpn:0x9 ~ea)
        (Mmu.access mmu Mmu.Load ea);
      (* TLB is now warm: the protection fault comes from the TLB entry *)
      check_fault (name ^ ": store on the warm-hit path")
        (Mmu.access mmu Mmu.Store ea);
      Alcotest.(check (option int)) (name ^ ": probe predicts the fault")
        None
        (Mmu.probe mmu Mmu.Store ea);
      Alcotest.(check (option int)) (name ^ ": probe allows the load")
        (Some (Addr.pa_of ~rpn:0x9 ~ea))
        (Mmu.probe mmu Mmu.Load ea);
      Alcotest.(check int) (name ^ ": shadow agrees throughout") 0
        (Shadow.total_divergences sh))
    translation_backends

let suite =
  [ Alcotest.test_case "address extremes" `Quick test_addr_extremes;
    Alcotest.test_case "largest BAT block" `Quick test_bat_largest_block;
    Alcotest.test_case "direct-mapped cache" `Quick test_direct_mapped_cache;
    Alcotest.test_case "single-way TLB" `Quick test_single_way_tlb;
    Alcotest.test_case "minimal htab" `Quick test_minimal_htab;
    Alcotest.test_case "pipe index wraps" `Quick test_pipe_index_wraps;
    Alcotest.test_case "zero-byte pipe ops" `Quick test_zero_byte_pipe_ops;
    Alcotest.test_case "reruns conserve frames" `Quick
      test_repeated_benchmarks_conserve_frames;
    Alcotest.test_case "sixty process generations" `Quick
      test_many_process_generations;
    Alcotest.test_case "tiny-RAM machine boots" `Quick test_tiny_ram_machine;
    Alcotest.test_case "OOM during fork" `Quick test_oom_during_fork;
    Alcotest.test_case "OOM during COW break" `Quick
      test_oom_during_cow_break_is_clean;
    Alcotest.test_case "segment boundary (0xB/0xC)" `Quick
      test_segment_boundary_translation;
    Alcotest.test_case "BAT edge translation" `Quick
      test_bat_edge_translation;
    Alcotest.test_case "store-to-readonly per backend" `Quick
      test_store_to_readonly_per_backend ]
