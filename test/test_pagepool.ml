(* get_free_page and the pre-zeroed list (§9). *)
open Ppc
module Physmem = Kernel_sim.Physmem
module Pagepool = Kernel_sim.Pagepool
module Policy = Kernel_sim.Policy

let mk ?(clearing = Policy.Clear_uncached) ?(use_list = true) () =
  let machine = Machine.ppc604_185 in
  let perf = Perf.create () in
  let memsys = Memsys.create ~machine ~perf in
  let physmem =
    Physmem.create ~ram_bytes:(2 * 1024 * 1024) ~reserved_bytes:4096
  in
  let pool =
    Pagepool.create ~physmem ~memsys ~clearing ~use_list ()
  in
  (pool, perf, physmem, memsys)

let test_get_zeroed_no_list () =
  let pool, perf, _, _ = mk ~clearing:Policy.Clear_off ~use_list:false () in
  (match Pagepool.get_zeroed_page pool with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a page");
  Alcotest.(check int) "no prezeroed hit" 0 perf.Perf.prezeroed_hits;
  Alcotest.(check int) "one call" 1 perf.Perf.get_free_page_calls;
  (* foreground clearing: 128 line stores through the cache *)
  Alcotest.(check int) "clearing traffic" 129 perf.Perf.dcache_accesses

let test_idle_clear_feeds_list () =
  let pool, perf, _, _ = mk () in
  Alcotest.(check bool) "idle did work" true (Pagepool.idle_clear_one pool);
  Alcotest.(check int) "one page cleared" 1 perf.Perf.pages_cleared_idle;
  Alcotest.(check int) "available" 1 (Pagepool.prezeroed_available pool);
  (match Pagepool.get_zeroed_page pool with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a page");
  Alcotest.(check int) "prezeroed hit" 1 perf.Perf.prezeroed_hits;
  Alcotest.(check int) "list drained" 0 (Pagepool.prezeroed_available pool)

let test_uncached_clearing_bypasses () =
  let pool, perf, _, _ = mk ~clearing:Policy.Clear_uncached () in
  ignore (Pagepool.idle_clear_one pool : bool);
  Alcotest.(check int) "stores bypass the cache" 128
    perf.Perf.dcache_bypasses;
  Alcotest.(check int) "no cache misses from clearing" 0
    perf.Perf.dcache_misses

let test_cached_clearing_allocates () =
  let pool, perf, _, memsys = mk ~clearing:Policy.Clear_cached () in
  ignore (Pagepool.idle_clear_one pool : bool);
  Alcotest.(check int) "no bypasses" 0 perf.Perf.dcache_bypasses;
  Alcotest.(check int) "128 lines allocated in the cache" 128
    (Cache.stats_allocations (Memsys.dcache memsys) Cache.Idle_clear)

let test_nolist_returns_frame () =
  let pool, perf, physmem, _ =
    mk ~clearing:Policy.Clear_uncached ~use_list:false ()
  in
  let before = Physmem.free_frames physmem in
  Alcotest.(check bool) "work done" true (Pagepool.idle_clear_one pool);
  Alcotest.(check int) "frame returned (control experiment)" before
    (Physmem.free_frames physmem);
  Alcotest.(check int) "nothing listed" 0 (Pagepool.prezeroed_available pool);
  Alcotest.(check int) "but work counted" 1 perf.Perf.pages_cleared_idle

let test_list_limit () =
  let pool, _, _, _ = mk () in
  for _ = 1 to Policy.prezero_list_pages do
    Alcotest.(check bool) "filling" true (Pagepool.idle_clear_one pool)
  done;
  Alcotest.(check bool) "full list stops work" false
    (Pagepool.idle_clear_one pool);
  Alcotest.(check int) "capped" Policy.prezero_list_pages
    (Pagepool.prezeroed_available pool)

let test_clear_off_never_works () =
  let pool, _, _, _ = mk ~clearing:Policy.Clear_off () in
  Alcotest.(check bool) "no work" false (Pagepool.idle_clear_one pool)

let test_fifo_order () =
  let pool, _, _, _ = mk () in
  ignore (Pagepool.idle_clear_one pool : bool);
  ignore (Pagepool.idle_clear_one pool : bool);
  let a = Option.get (Pagepool.get_zeroed_page pool) in
  let b = Option.get (Pagepool.get_zeroed_page pool) in
  (* FIFO: first-cleared page (lower frame from the LIFO allocator's
     deeper pop) comes out first; simply assert distinctness + drain *)
  Alcotest.(check bool) "distinct frames" true (a <> b)

let test_free_page_roundtrip () =
  let pool, _, physmem, _ = mk () in
  let before = Physmem.free_frames physmem in
  let rpn = Option.get (Pagepool.get_page pool) in
  Pagepool.free_page pool rpn;
  Alcotest.(check int) "conserved" before (Physmem.free_frames physmem)

let suite =
  [ Alcotest.test_case "foreground clear path" `Quick test_get_zeroed_no_list;
    Alcotest.test_case "idle clear feeds list" `Quick
      test_idle_clear_feeds_list;
    Alcotest.test_case "uncached clearing bypasses cache" `Quick
      test_uncached_clearing_bypasses;
    Alcotest.test_case "cached clearing allocates lines" `Quick
      test_cached_clearing_allocates;
    Alcotest.test_case "no-list control returns frame" `Quick
      test_nolist_returns_frame;
    Alcotest.test_case "list limit" `Quick test_list_limit;
    Alcotest.test_case "clear off" `Quick test_clear_off_never_works;
    Alcotest.test_case "FIFO ordering" `Quick test_fifo_order;
    Alcotest.test_case "free page roundtrip" `Quick test_free_page_roundtrip ]
