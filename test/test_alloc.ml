(* Allocation gate for the translation path: [Kernel.touch] builds
   nothing on the heap, on a TLB hit or on any TLB miss, for all three
   reload engines — the 604's hardware search ([Hw_search]), the 603's
   software htab search ([Sw_htab]) and the 603's direct walk of the
   page tables with no htab at all ([Sw_direct]) — and on an htab miss,
   where the software fill walks the page tables and runs
   [Htab.insert].

   The bound is per translation and leaves room for the timer tick,
   which [Kernel.touch] runs every [Kparams.timer_tick_cycles] simulated
   cycles and which does allocate.

   [Htab.insert] is also gated on its own, under each replacement
   policy, through free-slot fills, same-tag updates and evictions, and
   so are the idle task's zombie-reclaim scan and a demand-zero page
   clear. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm

let no_run (_ : Addr.pa) (_ : int) = ()
let data_base = Mm.user_text_base + (16 lsl Addr.page_shift)
let calls = 20_000
let bound = 0.01

(* Minor words per [Kernel.touch] over [calls] touches cycling through
   [pages] pages, one store in four, once every page is mapped writable
   and has been touched (no fault is left for the timed loop).  With
   [flush], [Mmu.flush_page] drops each page from the TLB and the htab
   before its touch, so every touch misses both and the fill runs; the
   flushes count in the words.  With [armed], the flight recorder is
   armed at a cadence that never comes due, so every miss takes the
   observed instance of the one miss sequence ([Mmu.miss
   ~observed:true], charge by charge) instead of the plain one. *)
let words_per_touch ?(policy = Policy.optimized) ?(flush = false)
    ?(armed = false) machine ~pages =
  let k = Kernel.boot ~machine ~policy ~seed:42 () in
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
  if armed then Recorder.enable (Kernel.recorder k) ~every:(1 lsl 50);
  let mmu = Kernel.mmu k in
  let perf = Kernel.perf k in
  let misses_before = perf.Perf.dtlb_misses in
  let fills_before = perf.Perf.htab_reloads in
  let words_before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    let j = i mod pages in
    if flush then Mmu.flush_page mmu eas.(j);
    Kernel.touch k kinds.(j) eas.(j)
  done;
  let words = Gc.minor_words () -. words_before in
  let misses = perf.Perf.dtlb_misses - misses_before in
  let fills = perf.Perf.htab_reloads - fills_before in
  Alcotest.(check bool) "observed iff armed" armed
    (Memsys.observed (Kernel.memsys k));
  Alcotest.(check int) "the recorder never fired" 0
    (Recorder.total (Kernel.recorder k));
  (words /. float_of_int calls, misses, fills)

let check_loop ?policy ?(flush = false) ?armed machine ~pages ~reloads () =
  let words, misses, fills =
    words_per_touch ?policy ~flush ?armed machine ~pages
  in
  if reloads then
    Alcotest.(check bool) "every touch reloads" true (misses >= calls)
  else Alcotest.(check int) "no D-TLB misses" 0 misses;
  if flush then
    Alcotest.(check bool) "every touch fills the htab" true (fills >= calls);
  if words >= bound then
    Alcotest.failf "%.4f minor words per translation (bound %.2f)" words bound

(* Minor words per [Htab.insert] on the 604-185's 16,384-entry table.
   For each of 512 page indices, 24 VSIDs share one PTEG pair: sixteen
   inserts fill both PTEGs' free slots, sixteen more update those
   entries in place, and the last eight each evict with both PTEGs full.
   [policy] and [changed] are passed through as options built once, as
   a caller that names them per call would allocate the [Some]. *)
let words_per_insert policy =
  let h = Htab.create ~n_ptes:16_384 () in
  let rng = Rng.create ~seed:42 in
  let policy = Some policy and changed = Some true in
  let evictions = ref 0 and inserts = ref 0 in
  let insert ~vsid ~page_index =
    incr inserts;
    if
      Htab.insert ?policy ?changed h ~rng ~vsid ~page_index ~rpn:vsid
        ~wimg:Pte.wimg_default ~protection:Pte.Read_write ~on_run:no_run
      >= 0
    then incr evictions
  in
  (* VSIDs that are multiples of the PTEG count hash with the page index
     alone *)
  let vsid k = k * Htab.n_ptegs h in
  let words_before = Gc.minor_words () in
  for page_index = 0 to 511 do
    for k = 0 to 15 do insert ~vsid:(vsid k) ~page_index done;
    for k = 0 to 15 do insert ~vsid:(vsid k) ~page_index done;
    for k = 16 to 23 do insert ~vsid:(vsid k) ~page_index done
  done;
  let words = Gc.minor_words () -. words_before in
  (words /. float_of_int !inserts, !evictions)

let check_insert policy () =
  let words, evictions = words_per_insert policy in
  Alcotest.(check int) "eight evictions per PTEG pair" (512 * 8) evictions;
  if words >= bound then
    Alcotest.failf "%.4f minor words per insert (bound %.2f)" words bound

(* Minor words per [Mmu.reclaim_zombies] call, at the idle task's chunk,
   over a booted 604-185's htab holding a task's 512 live entries and
   8,000 zombies: the timed calls sweep the table eight times, so the
   first sweep clears zombies and the rest scan live entries.  With
   [armed], the flight recorder is armed at a cadence that never comes
   due, so the scan charges slot by slot and every run takes the
   per-reference fallback. *)
let words_per_reclaim ~armed =
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:42
      ()
  in
  Kernel.switch_to k (Kernel.spawn k ~data_pages:512 ());
  for i = 0 to 511 do
    Kernel.touch k Mmu.Store (data_base + (i lsl Addr.page_shift))
  done;
  let mmu = Kernel.mmu k in
  let h = Option.get (Mmu.htab mmu) in
  let rng = Rng.create ~seed:7 in
  for i = 0 to 7999 do
    ignore
      (Htab.insert h ~rng ~vsid:(0x700000 + i) ~page_index:0
         ~rpn:i ~wimg:Pte.wimg_default ~protection:Pte.Read_write
         ~on_run:no_run
        : int)
  done;
  if armed then Recorder.enable (Kernel.recorder k) ~every:(1 lsl 50);
  let chunk = Policy.reclaim_chunk_ptes in
  let n = 8 * Htab.capacity h / chunk in
  let reclaimed = ref 0 in
  let words_before = Gc.minor_words () in
  for _ = 1 to n do
    reclaimed := !reclaimed + Mmu.reclaim_zombies mmu ~max_ptes:chunk
  done;
  let words = Gc.minor_words () -. words_before in
  Alcotest.(check bool) "fallback taken iff armed" armed
    (Memsys.sampling (Kernel.memsys k));
  Alcotest.(check int) "the recorder never fired" 0
    (Recorder.total (Kernel.recorder k));
  Alcotest.(check bool) "zombies reclaimed" true (!reclaimed > 1000);
  words /. float_of_int n

let check_reclaim ~armed () =
  let words = words_per_reclaim ~armed in
  if words >= bound then
    Alcotest.failf "%.4f minor words per reclaim scan (bound %.2f)" words
      bound

(* Minor words per demand-zero page clear: the 128 [dcbz]s of
   [Pagepool]'s foreground clear, through the 604-185's D-cache, over
   pages that evict each other's dirty lines. *)
let check_page_clear () =
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:42
      ()
  in
  let ms = Kernel.memsys k in
  let p = Kernel.perf k in
  let writebacks_before = p.Perf.dcache_writebacks in
  let words_before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    Memsys.zero_lines ms ~source:Cache.Kernel ~inhibited:false
      ((0x400 + (i land 15)) lsl Addr.page_shift)
      ~lines:(Addr.page_size / Addr.line_size)
  done;
  let words = (Gc.minor_words () -. words_before) /. float_of_int calls in
  Alcotest.(check bool) "clears write back dirty victims" true
    (p.Perf.dcache_writebacks > writebacks_before);
  if words >= bound then
    Alcotest.failf "%.4f minor words per page clear (bound %.2f)" words bound

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
      (check_loop Machine.ppc603_133 ~pages:512 ~reloads:true);
    Alcotest.test_case "reload loop (603-133, no htab)" `Quick
      (check_loop
         ~policy:{ Policy.optimized with use_htab = false }
         Machine.ppc603_133 ~pages:512 ~reloads:true);
    Alcotest.test_case "htab-miss fill loop (604-185)" `Quick
      (check_loop ~flush:true Machine.ppc604_185 ~pages:512 ~reloads:true);
    Alcotest.test_case "htab insert (arbitrary)" `Quick
      (check_insert Htab.Arbitrary);
    Alcotest.test_case "htab insert (second chance)" `Quick
      (check_insert Htab.Second_chance);
    Alcotest.test_case "htab insert (prefer zombie)" `Quick
      (check_insert (Htab.Prefer_zombie (fun vsid -> vsid land 0x800 <> 0)));
    Alcotest.test_case "zombie reclaim scan" `Quick
      (check_reclaim ~armed:false);
    Alcotest.test_case "zombie reclaim scan (recorder armed)" `Quick
      (check_reclaim ~armed:true);
    Alcotest.test_case "demand-zero page clear" `Quick check_page_clear;
    Alcotest.test_case "reload loop (604-185, recorder armed)" `Quick
      (check_loop ~armed:true Machine.ppc604_185 ~pages:512 ~reloads:true) ]
