(* The shadow reference MMU: clean runs are divergence-free on every
   backend, checking never perturbs the simulation, and a planted
   stale-TLB bug is caught with the right event context. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Config = Mmu_tricks.Config
module Runner = Mmu_tricks.Runner

let user_vsid_base = 0x100

(* Raw-MMU rig over a mutable backing, mirroring Test_mmu.make but with
   a shadow checker attached. *)
let make_shadowed ?(machine = Machine.ppc604_185) ?(knobs = Mmu.default_knobs)
    () =
  let perf = Perf.create () in
  let memsys = Memsys.create ~machine ~perf in
  let mappings : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
  let walk ~on_ref ea =
    on_ref 0x4000;
    on_ref 0x4100;
    match Hashtbl.find_opt mappings (Addr.epn ea) with
    | Some (rpn, writable) ->
        on_ref 0x4200;
        Mmu.pack ~rpn ~writable ~inhibited:false
    | None -> -1
  in
  let mmu =
    Mmu.create ~machine ~memsys ~knobs ~backing:{ Mmu.walk }
      ~rng:(Rng.create ~seed:3) ()
  in
  Segment.load_user (Mmu.segments mmu) (fun sr -> user_vsid_base + sr);
  Segment.load_kernel (Mmu.segments mmu) (fun sr -> 0xF00 + sr);
  let sh = Shadow.create () in
  Mmu.attach_shadow mmu sh;
  (mmu, mappings, perf, sh)

(* One deterministic access mix: mapped loads/stores/fetches, faults on
   unmapped pages, read-only protection faults, a flush and a re-fill. *)
let drive mmu mappings =
  for i = 0 to 30 do
    Hashtbl.replace mappings (0x01800 + i) (0x200 + i, i land 1 = 0)
  done;
  for i = 0 to 30 do
    let ea = (0x01800 + i) lsl Addr.page_shift in
    ignore (Mmu.access mmu Mmu.Load ea : Mmu.access_result);
    ignore (Mmu.access mmu Mmu.Fetch ea : Mmu.access_result);
    ignore (Mmu.access mmu Mmu.Store ea : Mmu.access_result)
  done;
  ignore (Mmu.access mmu Mmu.Load 0x50000000 : Mmu.access_result);
  ignore (Mmu.access mmu Mmu.Store 0x50001000 : Mmu.access_result);
  Mmu.flush_page mmu 0x01800000;
  Hashtbl.remove mappings 0x01801;
  Mmu.flush_page mmu 0x01801000;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  ignore (Mmu.access mmu Mmu.Load 0x01801000 : Mmu.access_result)

let backends =
  [ ("604 hw-search", Machine.ppc604_185, Mmu.default_knobs);
    ("603 sw-htab", Machine.ppc603_133, Mmu.default_knobs);
    ( "603 sw-direct",
      Machine.ppc603_133,
      { Mmu.default_knobs with Mmu.use_htab = false } ) ]

let test_clean_run_no_divergence () =
  List.iter
    (fun (name, machine, knobs) ->
      let mmu, mappings, _, sh = make_shadowed ~machine ~knobs () in
      drive mmu mappings;
      Alcotest.(check bool)
        (name ^ ": checks performed") true
        (Shadow.checks sh > 0);
      Alcotest.(check int) (name ^ ": no divergence") 0
        (Shadow.total_divergences sh))
    backends

let perf_signature p =
  ( p.Perf.cycles,
    p.Perf.mem_refs,
    Perf.tlb_misses p,
    p.Perf.htab_searches,
    Perf.cache_misses p,
    p.Perf.instructions )

let test_shadow_is_free () =
  List.iter
    (fun (name, machine, knobs) ->
      let run shadowed =
        let perf = Perf.create () in
        let memsys = Memsys.create ~machine ~perf in
        let mappings = Hashtbl.create 64 in
        let walk ~on_ref ea =
          on_ref 0x4000;
          on_ref 0x4100;
          match Hashtbl.find_opt mappings (Addr.epn ea) with
          | Some (rpn, writable) ->
              on_ref 0x4200;
              Mmu.pack ~rpn ~writable ~inhibited:false
          | None -> -1
        in
        let mmu =
          Mmu.create ~machine ~memsys ~knobs ~backing:{ Mmu.walk }
            ~rng:(Rng.create ~seed:3) ()
        in
        Segment.load_user (Mmu.segments mmu) (fun sr -> user_vsid_base + sr);
        Segment.load_kernel (Mmu.segments mmu) (fun sr -> 0xF00 + sr);
        if shadowed then Mmu.attach_shadow mmu (Shadow.create ());
        drive mmu mappings;
        perf_signature perf
      in
      Alcotest.(check bool)
        (name ^ ": counters identical with shadow on")
        true
        (run false = run true))
    backends

let test_probe_ignores_stale_state () =
  (* probe is derived from the reference translator, so a stale TLB
     entry never leaks into it *)
  let mmu, mappings, _, _ = make_shadowed () in
  Hashtbl.replace mappings 0x01800 (0xAA, true);
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  (* remap behind the MMU's back: TLB still says 0xAA *)
  Hashtbl.replace mappings 0x01800 (0xBB, true);
  Alcotest.(check (option int))
    "probe answers from the page tables"
    (Some (Addr.pa_of ~rpn:0xBB ~ea:0x01800004))
    (Mmu.probe mmu Mmu.Load 0x01800004)

let test_injected_stale_tlb_is_caught () =
  let mmu, mappings, _, sh = make_shadowed () in
  let ea = 0x01800000 in
  Hashtbl.replace mappings (Addr.epn ea) (0xAA, true);
  ignore (Mmu.access mmu Mmu.Load ea : Mmu.access_result);
  Alcotest.(check int) "clean before injection" 0
    (Shadow.total_divergences sh);
  (* remap the page and flush — but the flush loses its TLB invalidate *)
  Hashtbl.replace mappings (Addr.epn ea) (0xBB, true);
  Mmu.test_skip_tlb_invalidations := 1;
  Fun.protect
    ~finally:(fun () -> Mmu.test_skip_tlb_invalidations := 0)
    (fun () -> Mmu.flush_page mmu ea);
  (match Mmu.access mmu Mmu.Load ea with
  | Mmu.Ok pa ->
      Alcotest.(check int) "fast path serves the stale frame"
        (Addr.pa_of ~rpn:0xAA ~ea) pa
  | Mmu.Fault -> Alcotest.fail "stale TLB entry should still translate");
  Alcotest.(check int) "divergence reported" 1 (Shadow.total_divergences sh);
  match Shadow.divergences sh with
  | [ d ] ->
      Alcotest.(check int) "right ea" ea d.Shadow.d_ea;
      Alcotest.(check int) "right vsid"
        (Segment.vsid_for (Mmu.segments mmu) ea)
        d.Shadow.d_vsid;
      Alcotest.(check bool) "fast side answered from the TLB" true
        (d.Shadow.d_fast.Shadow.answered = Shadow.Tlb);
      Alcotest.(check (option int)) "reference has the fresh frame"
        (Some (Addr.pa_of ~rpn:0xBB ~ea))
        d.Shadow.d_reference.Shadow.pa;
      Alcotest.(check bool) "the lost flush is in the context" true
        (List.exists
           (fun f -> f.Shadow.f_ea = ea && f.Shadow.f_what = "flush-page")
           d.Shadow.d_recent_flushes)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 divergence, got %d"
                          (List.length l))

(* --- kernel-level ------------------------------------------------------ *)

(* A small but varied workload: processes, COW forks, exec, mmap/munmap,
   pipes — every flush path the kernel has. *)
let kernel_workload k =
  let text_pages = 8 and data_pages = 8 and stack_pages = 4 in
  let data_base = Mm.user_text_base + (text_pages lsl Addr.page_shift) in
  let store_all () =
    for i = 0 to data_pages - 1 do
      Kernel.touch k Mmu.Store (data_base + (i lsl Addr.page_shift))
    done
  in
  let parent = Kernel.spawn k ~text_pages ~data_pages ~stack_pages () in
  Kernel.switch_to k parent;
  Kernel.user_run k ~instrs:2000;
  store_all ();
  let buf = Kernel.sys_mmap k ~pages:4 ~writable:true in
  for i = 0 to 3 do
    Kernel.touch k Mmu.Store (buf + (i lsl Addr.page_shift))
  done;
  Kernel.sys_munmap k ~ea:buf ~pages:4;
  for _ = 1 to 3 do
    let child = Kernel.sys_fork k in
    store_all ();
    Kernel.switch_to k child;
    Kernel.sys_exec k ~text_pages ~data_pages ~stack_pages;
    Kernel.user_run k ~instrs:500;
    store_all ();
    Kernel.sys_exit k;
    Kernel.switch_to k parent
  done

let kernel_policies =
  [ ("604 optimized", Machine.ppc604_185, Policy.optimized);
    ("604 baseline", Machine.ppc604_185, Policy.baseline);
    ("603 sw-htab", Machine.ppc603_133, Policy.optimized);
    ("603 sw-direct", Machine.ppc603_133, Config.optimized_no_htab);
    ("604 precise", Machine.ppc604_185, Config.optimized_precise_flush) ]

let test_kernel_clean_no_divergence () =
  List.iter
    (fun (name, machine, policy) ->
      let k = Kernel.boot ~machine ~policy ~seed:7 ~shadow:true () in
      kernel_workload k;
      match Kernel.shadow k with
      | None -> Alcotest.fail (name ^ ": shadow requested but absent")
      | Some sh ->
          Alcotest.(check bool)
            (name ^ ": checks performed") true
            (Shadow.checks sh > 0);
          Alcotest.(check int) (name ^ ": no divergence") 0
            (Shadow.total_divergences sh))
    kernel_policies

let test_kernel_shadow_is_free () =
  let run shadow =
    let k =
      Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized
        ~seed:7 ~shadow ()
    in
    kernel_workload k;
    perf_signature (Kernel.perf k)
  in
  Alcotest.(check bool) "kernel counters identical with shadow on" true
    (run false = run true)

let test_kernel_injected_bug_is_caught () =
  (* The lazy-flush kernel's precise path: munmap of a small range
     under the cutoff flushes page by page; losing one invalidate
     leaves a stale translation for a freed frame. *)
  let k =
    Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Config.optimized_precise_flush ~seed:7 ~shadow:true ()
  in
  let parent = Kernel.spawn k () in
  Kernel.switch_to k parent;
  Kernel.user_run k ~instrs:1000;
  let buf = Kernel.sys_mmap k ~pages:4 ~writable:true in
  Kernel.touch k Mmu.Store buf;
  Mmu.test_skip_tlb_invalidations := 1;
  Fun.protect
    ~finally:(fun () -> Mmu.test_skip_tlb_invalidations := 0)
    (fun () -> Kernel.sys_munmap k ~ea:buf ~pages:4);
  Kernel.touch k Mmu.Load buf;
  let sh = Option.get (Kernel.shadow k) in
  Alcotest.(check bool) "divergence reported" true
    (Shadow.total_divergences sh > 0);
  match Shadow.divergences sh with
  | d :: _ ->
      Alcotest.(check int) "right ea" buf d.Shadow.d_ea;
      Alcotest.(check bool) "reference faults on the unmapped page" true
        (d.Shadow.d_reference.Shadow.pa = None)
  | [] -> Alcotest.fail "no divergence recorded"

let test_agree_semantics () =
  let ok structure pa =
    { Shadow.pa = Some pa; inhibited = false; answered = structure }
  in
  Alcotest.(check bool) "same pa via different structures agrees" true
    (Shadow.agree (ok Shadow.Tlb 0x1000) (ok Shadow.Page_table 0x1000));
  Alcotest.(check bool) "different pa diverges" false
    (Shadow.agree (ok Shadow.Tlb 0x1000) (ok Shadow.Page_table 0x2000));
  Alcotest.(check bool) "fault vs translation diverges" false
    (Shadow.agree (ok Shadow.Tlb 0x1000)
       { Shadow.pa = None; inhibited = false; answered = Shadow.No_translation });
  Alcotest.(check bool) "both fault agrees" true
    (Shadow.agree
       { Shadow.pa = None; inhibited = false; answered = Shadow.Tlb }
       { Shadow.pa = None; inhibited = false; answered = Shadow.No_translation });
  Alcotest.(check bool) "cache-inhibit mismatch diverges" false
    (Shadow.agree (ok Shadow.Tlb 0x1000)
       { Shadow.pa = Some 0x1000; inhibited = true;
         answered = Shadow.Page_table })

let test_boot_config_registry () =
  (* the boot configuration arms the checker; the kernel registry hands
     its kernel back to the caller *)
  let boot () =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:7
      ()
  in
  let k, drained, again =
    Runner.armed
      { Boot.plain with Boot.shadow = true }
      (fun () ->
        let k = boot () in
        let drained = Kernel.drain_smp_registered () in
        (k, drained, Kernel.drain_smp_registered ()))
  in
  Alcotest.(check bool) "armed: kernel picked up a checker" true
    (Kernel.shadow k <> None);
  Alcotest.(check bool) "armed: kernel collected for the caller" true
    (List.length drained = 1 && List.hd drained == k);
  Alcotest.(check int) "one drain empties the registry" 0 (List.length again);
  Alcotest.(check bool) "disarmed: plain kernel" true
    (Kernel.shadow (boot ()) = None);
  Alcotest.(check int) "disarmed: nothing registered" 0
    (List.length (Kernel.drain_smp_registered ()))

let suite =
  [ Alcotest.test_case "clean run, all backends" `Quick
      test_clean_run_no_divergence;
    Alcotest.test_case "checking is free (raw MMU)" `Quick
      test_shadow_is_free;
    Alcotest.test_case "probe ignores stale state" `Quick
      test_probe_ignores_stale_state;
    Alcotest.test_case "stale TLB caught with context" `Quick
      test_injected_stale_tlb_is_caught;
    Alcotest.test_case "kernel clean, all policies" `Quick
      test_kernel_clean_no_divergence;
    Alcotest.test_case "checking is free (kernel)" `Quick
      test_kernel_shadow_is_free;
    Alcotest.test_case "kernel stale TLB caught" `Quick
      test_kernel_injected_bug_is_caught;
    Alcotest.test_case "agree semantics" `Quick test_agree_semantics;
    Alcotest.test_case "boot-defaults registry" `Quick
      test_boot_config_registry ]
