(* The translation engine: reload paths, faults, flushes, probe oracle. *)
open Ppc

let user_vsid_base = 0x100

(* A backing store over a mutable epn -> (rpn, writable) table. *)
let make ?(machine = Machine.ppc604_185) ?(knobs = Mmu.default_knobs) () =
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
  (mmu, mappings, perf)

let map mappings ~ea ~rpn = Hashtbl.replace mappings (Addr.epn ea) (rpn, true)

let map_ro mappings ~ea ~rpn =
  Hashtbl.replace mappings (Addr.epn ea) (rpn, false)

let check_ok name expected result =
  match result with
  | Mmu.Ok pa -> Alcotest.(check int) name expected pa
  | Mmu.Fault -> Alcotest.fail (name ^ ": unexpected fault")

let test_basic_translation () =
  let mmu, mappings, perf = make () in
  map mappings ~ea:0x01800000 ~rpn:0x123;
  check_ok "first access" (Addr.pa_of ~rpn:0x123 ~ea:0x01800004)
    (Mmu.access mmu Mmu.Load 0x01800004);
  Alcotest.(check int) "one dtlb miss" 1 perf.Perf.dtlb_misses;
  check_ok "second access" (Addr.pa_of ~rpn:0x123 ~ea:0x01800008)
    (Mmu.access mmu Mmu.Load 0x01800008);
  Alcotest.(check int) "second is a TLB hit" 1 perf.Perf.dtlb_misses

let test_fetch_uses_itlb () =
  let mmu, mappings, perf = make () in
  map mappings ~ea:0x01800000 ~rpn:0x55;
  ignore (Mmu.access mmu Mmu.Fetch 0x01800000 : Mmu.access_result);
  Alcotest.(check int) "itlb miss" 1 perf.Perf.itlb_misses;
  Alcotest.(check int) "no dtlb traffic" 0 perf.Perf.dtlb_lookups

let test_fault_unmapped () =
  let mmu, _, perf = make () in
  (match Mmu.access mmu Mmu.Load 0x30000000 with
  | Mmu.Fault -> ()
  | Mmu.Ok _ -> Alcotest.fail "expected fault");
  Alcotest.(check bool) "miss was counted" true (perf.Perf.dtlb_misses = 1)

let test_store_readonly_faults () =
  let mmu, mappings, _ = make () in
  map_ro mappings ~ea:0x01800000 ~rpn:0x9;
  (match Mmu.access mmu Mmu.Store 0x01800000 with
  | Mmu.Fault -> ()
  | Mmu.Ok _ -> Alcotest.fail "store to read-only must fault");
  check_ok "load is fine" (Addr.pa_of ~rpn:0x9 ~ea:0x01800000)
    (Mmu.access mmu Mmu.Load 0x01800000)

let test_bat_bypasses_tlb () =
  let mmu, _, perf = make () in
  Bat.set (Mmu.dbat mmu) ~index:0 ~base_ea:0xC0000000
    ~length:(32 * 1024 * 1024) ~phys_base:0;
  check_ok "bat translation" 0x00123456
    (Mmu.access mmu Mmu.Load 0xC0123456);
  Alcotest.(check int) "no TLB lookup at all" 0 (Perf.tlb_lookups perf);
  Alcotest.(check int) "no TLB miss" 0 (Perf.tlb_misses perf)

let test_hw_reload_counters () =
  let mmu, mappings, perf = make ~machine:Machine.ppc604_185 () in
  map mappings ~ea:0x01800000 ~rpn:0x42;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  (* 604: hardware search missed (cold htab), then software filled it *)
  Alcotest.(check int) "one search" 1 perf.Perf.htab_searches;
  Alcotest.(check int) "one htab miss" 1 perf.Perf.htab_misses;
  Alcotest.(check int) "one reload into htab" 1 perf.Perf.htab_reloads;
  (* invalidate TLB: next access must hit the htab in hardware *)
  Mmu.invalidate_tlbs mmu;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  Alcotest.(check int) "second search hits" 1 perf.Perf.htab_hits

let test_sw_no_htab_reload () =
  let knobs = { Mmu.default_knobs with Mmu.use_htab = false } in
  let mmu, mappings, perf = make ~machine:Machine.ppc603_133 ~knobs () in
  Alcotest.(check bool) "htab eliminated" true (Mmu.htab mmu = None);
  map mappings ~ea:0x01800000 ~rpn:0x42;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  Alcotest.(check int) "no htab traffic" 0 perf.Perf.htab_searches;
  Alcotest.(check int) "no htab reloads" 0 perf.Perf.htab_reloads;
  Alcotest.(check bool) "pt walk references counted" true
    (perf.Perf.mem_refs >= 3)

let test_hardware_machine_forces_htab () =
  let knobs = { Mmu.default_knobs with Mmu.use_htab = false } in
  let mmu, _, _ = make ~machine:Machine.ppc604_185 ~knobs () in
  Alcotest.(check bool) "604 cannot drop the htab" true (Mmu.htab mmu <> None)

let test_sw_trap_cost () =
  let mmu, mappings, perf = make ~machine:Machine.ppc603_133 () in
  map mappings ~ea:0x01800000 ~rpn:0x1;
  let before = perf.Perf.cycles in
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  let cost = perf.Perf.cycles - before in
  Alcotest.(check bool) "at least the 32-cycle trap" true
    (cost >= Cost.tlb_miss_trap_cycles)

let test_slow_reload_costs_more () =
  let run fast =
    let knobs = { Mmu.default_knobs with Mmu.fast_reload = fast } in
    let mmu, mappings, perf = make ~machine:Machine.ppc603_133 ~knobs () in
    map mappings ~ea:0x01800000 ~rpn:0x1;
    ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
    perf.Perf.cycles
  in
  Alcotest.(check bool) "C handlers cost more than assembly" true
    (run false > run true)

let test_probe_matches_access_and_is_free () =
  let mmu, mappings, perf = make () in
  map mappings ~ea:0x01800000 ~rpn:0x77;
  let before = Perf.snapshot perf in
  let probed = Mmu.probe mmu Mmu.Load 0x01800123 in
  Alcotest.(check int) "probe is free" before.Perf.cycles perf.Perf.cycles;
  (match Mmu.access mmu Mmu.Load 0x01800123 with
  | Mmu.Ok pa -> Alcotest.(check (option int)) "probe agrees" (Some pa) probed
  | Mmu.Fault -> Alcotest.fail "unexpected fault");
  Alcotest.(check (option int)) "unmapped probes to None" None
    (Mmu.probe mmu Mmu.Load 0x50000000)

let test_flush_page () =
  let mmu, mappings, perf = make () in
  map mappings ~ea:0x01800000 ~rpn:0x7;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  let vsid = Segment.vsid_for (Mmu.segments mmu) 0x01800000 in
  let vpn = Addr.vpn_of ~vsid ~ea:0x01800000 in
  Alcotest.(check bool) "tlb entry present" true
    (Tlb.peek (Mmu.dtlb mmu) vpn <> None);
  Mmu.flush_page mmu 0x01800000;
  Alcotest.(check bool) "tlb entry flushed" true
    (Tlb.peek (Mmu.dtlb mmu) vpn = None);
  Alcotest.(check int) "flush search counted" 1 perf.Perf.flush_pte_searches;
  (match Mmu.htab mmu with
  | Some h -> Alcotest.(check int) "htab entry invalidated" 0 (Htab.occupancy h)
  | None -> ());
  (* access again: reload re-fills *)
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  Alcotest.(check int) "two misses total" 2 perf.Perf.dtlb_misses

let test_reclaim_zombies () =
  let mmu, mappings, perf = make () in
  map mappings ~ea:0x01800000 ~rpn:0x1;
  map mappings ~ea:0x01801000 ~rpn:0x2;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  ignore (Mmu.access mmu Mmu.Load 0x01801000 : Mmu.access_result);
  Mmu.set_vsid_is_zombie mmu (fun _ -> true);
  let n =
    Mmu.reclaim_zombies mmu ~max_ptes:Machine.ppc604_185.Machine.htab_ptes
  in
  Alcotest.(check int) "both reclaimed" 2 n;
  Alcotest.(check int) "perf counted" 2 perf.Perf.zombies_reclaimed

let test_kernel_tlb_entries () =
  let mmu, mappings, _ = make () in
  map mappings ~ea:0x01800000 ~rpn:0x1;
  map mappings ~ea:0xC0001000 ~rpn:0x2;
  ignore (Mmu.access mmu Mmu.Load 0x01800000 : Mmu.access_result);
  ignore (Mmu.access mmu Mmu.Load 0xC0001000 : Mmu.access_result);
  Alcotest.(check int) "one kernel entry" 1
    (Mmu.kernel_tlb_entries mmu ~is_kernel_vsid:(fun v -> v >= 0xF00));
  Alcotest.(check int) "two total" 2 (Mmu.tlb_occupancy mmu)

let test_changed_bit_set_eagerly () =
  (* §7: dirty/modified bits are updated when the PTE is loaded into the
     hash table, which is what makes a later flush a pure invalidate. *)
  let mmu, mappings, perf = make () in
  map mappings ~ea:0x01800000 ~rpn:0x5;
  map mappings ~ea:0x01801000 ~rpn:0x6;
  ignore (Mmu.access mmu Mmu.Store 0x01800000 : Mmu.access_result);
  ignore (Mmu.access mmu Mmu.Load 0x01801000 : Mmu.access_result);
  match Mmu.htab mmu with
  | None -> Alcotest.fail "604 has an htab"
  | Some h ->
      let find pidx =
        let i =
          Htab.find_slot h ~vsid:(user_vsid_base + 0) ~page_index:pidx
        in
        if i < 0 then None else Some (Htab.decode h i)
      in
      (match find 0x1800 with
      | Some pte ->
          Alcotest.(check bool) "C set for store reload" true pte.Pte.changed
      | None -> Alcotest.fail "expected htab entry");
      (match find 0x1801 with
      | Some pte ->
          Alcotest.(check bool) "C clear for load reload" false
            pte.Pte.changed;
          Alcotest.(check bool) "R set" true pte.Pte.referenced
      | None -> Alcotest.fail "expected htab entry");
      (* A store reload that must displace a valid entry sets C too:
         sixteen loads fill the primary and secondary PTEGs of one hash,
         and a seventeenth page with the same hash is stored to. *)
      let stride = Htab.n_ptegs h * Addr.page_size in
      let same_hash k = 0x00400000 + (k * stride) in
      for k = 0 to 15 do
        map mappings ~ea:(same_hash k) ~rpn:(0x100 + k);
        ignore (Mmu.access mmu Mmu.Load (same_hash k) : Mmu.access_result)
      done;
      let evicts = perf.Perf.htab_evicts in
      map mappings ~ea:(same_hash 16) ~rpn:0x200;
      ignore (Mmu.access mmu Mmu.Store (same_hash 16) : Mmu.access_result);
      Alcotest.(check int) "the store reload evicted" (evicts + 1)
        perf.Perf.htab_evicts;
      match find (Addr.page_index (same_hash 16)) with
      | Some pte ->
          Alcotest.(check bool) "C set for evicting store reload" true
            pte.Pte.changed
      | None -> Alcotest.fail "expected htab entry"

let test_evict_classification () =
  (* Fill the htab's two PTEGs for one tag family until a live eviction
     is recorded. *)
  let mmu, mappings, perf = make () in
  Mmu.set_vsid_is_zombie mmu (fun _ -> false);
  (* 20 pages mapping to segment 0, all with vsid user_vsid_base *)
  for i = 0 to 40 do
    let ea = 0x01800000 + (i * Addr.page_size * 2048 * 16) land 0x0FFFFFFF in
    map mappings ~ea ~rpn:i;
    ignore (Mmu.access mmu Mmu.Load ea : Mmu.access_result)
  done;
  Alcotest.(check int) "evicts classified" perf.Perf.htab_evicts
    (perf.Perf.htab_evicts_live + perf.Perf.htab_evicts_zombie)

let test_engine_selection () =
  let style_of machine knobs =
    let mmu, _, _ = make ~machine ~knobs () in
    Reload_engine.style (Mmu.engine mmu)
  in
  let no_htab = { Mmu.default_knobs with Mmu.use_htab = false } in
  Alcotest.(check bool) "604 selects hw-search" true
    (style_of Machine.ppc604_185 Mmu.default_knobs = Reload_engine.Hw_search);
  Alcotest.(check bool) "604 cannot bypass the htab" true
    (style_of Machine.ppc604_185 no_htab = Reload_engine.Hw_search);
  Alcotest.(check bool) "603 with htab emulates the 604" true
    (style_of Machine.ppc603_133 Mmu.default_knobs = Reload_engine.Sw_htab);
  Alcotest.(check bool) "603 without htab walks directly" true
    (style_of Machine.ppc603_133 no_htab = Reload_engine.Sw_direct)

let test_engine_cost_table () =
  (* every style has exactly one row, and the rows carry the paper's
     trap/overhead constants *)
  Alcotest.(check int) "one row per style"
    (List.length Reload_engine.all_styles)
    (List.length Reload_engine.cost_table);
  List.iter
    (fun style ->
      ignore (Reload_engine.costs_of style : Reload_engine.costs))
    Reload_engine.all_styles;
  let hw = Reload_engine.costs_of Reload_engine.Hw_search in
  Alcotest.(check int) "hw entry = hardware-search overhead"
    Cost.hw_search_overhead_cycles hw.Reload_engine.entry_stall_cycles;
  Alcotest.(check int) "hw miss = the 91-cycle interrupt"
    Cost.htab_miss_trap_cycles hw.Reload_engine.miss_trap_cycles;
  Alcotest.(check bool) "hw search is not software" false
    hw.Reload_engine.software_search;
  let sw = Reload_engine.costs_of Reload_engine.Sw_htab in
  Alcotest.(check int) "sw entry = the 32-cycle trap"
    Cost.tlb_miss_trap_cycles sw.Reload_engine.entry_stall_cycles;
  Alcotest.(check int) "sw hash setup charged"
    Cost.sw_hash_setup_instr sw.Reload_engine.hash_setup_instr;
  let direct = Reload_engine.costs_of Reload_engine.Sw_direct in
  Alcotest.(check int) "direct has no hash setup" 0
    direct.Reload_engine.hash_setup_instr;
  Alcotest.(check int) "direct has no extra miss trap" 0
    direct.Reload_engine.miss_trap_cycles

(* Property: probe always predicts what access will return, across
   random mapping tables, access kinds and both reload styles. *)
let prop_probe_predicts_access machine name =
  QCheck.Test.make ~name ~count:40
    QCheck.(
      pair
        (list_of_size (Gen.return 25)
           (pair (int_bound 0xBFF) (int_bound 0xFFF)))
        (list_of_size (Gen.return 120) (pair (int_bound 0xFFF) (int_bound 2))))
    (fun (mappings_spec, accesses) ->
      let mmu, mappings, _ = make ~machine () in
      List.iter
        (fun (page, rpn) ->
          Hashtbl.replace mappings (0x01800 + page) (rpn, page land 1 = 0))
        mappings_spec;
      List.for_all
        (fun (page, kind_i) ->
          let ea = (0x01800 + page) lsl Addr.page_shift in
          let kind =
            match kind_i with 0 -> Mmu.Fetch | 1 -> Mmu.Load | _ -> Mmu.Store
          in
          let predicted = Mmu.probe mmu kind ea in
          match (Mmu.access mmu kind ea, predicted) with
          | Mmu.Ok pa, Some pa' -> pa = pa'
          | Mmu.Fault, None -> true
          | Mmu.Ok _, None | Mmu.Fault, Some _ -> false)
        accesses)

let suite =
  [ Alcotest.test_case "basic translation" `Quick test_basic_translation;
    Alcotest.test_case "fetch uses itlb" `Quick test_fetch_uses_itlb;
    Alcotest.test_case "fault on unmapped" `Quick test_fault_unmapped;
    Alcotest.test_case "store to read-only faults" `Quick
      test_store_readonly_faults;
    Alcotest.test_case "bat bypasses tlb" `Quick test_bat_bypasses_tlb;
    Alcotest.test_case "hw reload counters" `Quick test_hw_reload_counters;
    Alcotest.test_case "603 no-htab reload" `Quick test_sw_no_htab_reload;
    Alcotest.test_case "604 forces htab" `Quick
      test_hardware_machine_forces_htab;
    Alcotest.test_case "software trap cost" `Quick test_sw_trap_cost;
    Alcotest.test_case "slow reload costs more" `Quick
      test_slow_reload_costs_more;
    Alcotest.test_case "probe oracle" `Quick
      test_probe_matches_access_and_is_free;
    Alcotest.test_case "flush page" `Quick test_flush_page;
    Alcotest.test_case "zombie reclaim" `Quick test_reclaim_zombies;
    Alcotest.test_case "kernel tlb share" `Quick test_kernel_tlb_entries;
    Alcotest.test_case "C bit set eagerly (§7)" `Quick
      test_changed_bit_set_eagerly;
    Alcotest.test_case "evict classification" `Quick
      test_evict_classification;
    Alcotest.test_case "reload backend selection" `Quick
      test_engine_selection;
    Alcotest.test_case "reload cost table" `Quick test_engine_cost_table;
    QCheck_alcotest.to_alcotest
      (prop_probe_predicts_access Machine.ppc604_185
         "probe predicts access (604 hw reload)");
    QCheck_alcotest.to_alcotest
      (prop_probe_predicts_access Machine.ppc603_133
         "probe predicts access (603 sw reload)") ]
