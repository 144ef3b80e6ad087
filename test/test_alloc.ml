(* Allocation gate for the translation path: [Kernel.touch] builds
   nothing on the heap, on a TLB hit or on a TLB miss served from the
   htab, for both htab reload engines — the 604's hardware search
   ([Hw_search]) and the 603's software search ([Sw_htab]).

   Excluded: the 603 without an htab ([Sw_direct]), whose reload walks
   the page tables through [backing.walk], and that still returns a
   record per miss.

   The bound is per translation and leaves room for the timer tick,
   which [Kernel.touch] runs every [Kparams.timer_tick_cycles] simulated
   cycles and which does allocate. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm

let data_base = Mm.user_text_base + (16 lsl Addr.page_shift)
let calls = 20_000
let bound = 0.01

(* Minor words per [Kernel.touch] over [calls] touches cycling through
   [pages] pages, one store in four, once every page is mapped writable
   and has been touched (no fault is left for the timed loop). *)
let words_per_touch machine ~pages =
  let k = Kernel.boot ~machine ~policy:Policy.optimized ~seed:42 () in
  Kernel.switch_to k (Kernel.spawn k ~data_pages:pages ());
  let eas =
    Array.init pages (fun i ->
        data_base + (i lsl Addr.page_shift)
        + (((i * 3) land 127) lsl Addr.line_shift))
  in
  let kinds =
    Array.init pages (fun i -> if i land 3 = 0 then Mmu.Store else Mmu.Load)
  in
  Array.iter (fun ea -> Kernel.touch k Mmu.Store ea) eas;
  let misses_before = (Kernel.perf k).Perf.dtlb_misses in
  let words_before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    let j = i mod pages in
    Kernel.touch k kinds.(j) eas.(j)
  done;
  let words = Gc.minor_words () -. words_before in
  let misses = (Kernel.perf k).Perf.dtlb_misses - misses_before in
  (words /. float_of_int calls, misses)

let check_loop machine ~pages ~reloads () =
  let words, misses = words_per_touch machine ~pages in
  if reloads then
    Alcotest.(check bool) "every touch reloads" true (misses >= calls)
  else Alcotest.(check int) "no D-TLB misses" 0 misses;
  if words >= bound then
    Alcotest.failf "%.4f minor words per translation (bound %.2f)" words bound

(* 8 pages stay in every TLB; 512 pages cycle through more sets than a
   2-way TLB of 128 (604) or 64 (603) entries holds. *)
let suite =
  [ Alcotest.test_case "warm loop (604-185, hw search)" `Quick
      (check_loop Machine.ppc604_185 ~pages:8 ~reloads:false);
    Alcotest.test_case "reload loop (604-185, hw search)" `Quick
      (check_loop Machine.ppc604_185 ~pages:512 ~reloads:true);
    Alcotest.test_case "warm loop (603-133, sw htab)" `Quick
      (check_loop Machine.ppc603_133 ~pages:8 ~reloads:false);
    Alcotest.test_case "reload loop (603-133, sw htab)" `Quick
      (check_loop Machine.ppc603_133 ~pages:512 ~reloads:true) ]
