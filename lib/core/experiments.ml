open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Lmbench = Workloads.Lmbench
module Kbuild = Workloads.Kbuild
module Msr = Workloads.Measure

type table = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let print t =
  Report.section t.title;
  Report.table ~header:t.header ~rows:t.rows;
  List.iter (fun n -> Printf.printf "  %s\n" n) t.notes;
  if t.notes <> [] then print_newline ()

let lm ~seed machine policy = Lmbench.run ~machine ~policy ~seed ()

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let to_csv t =
  let line cells = String.concat "," (List.map csv_cell cells) in
  String.concat "\n" (line t.header :: List.map line t.rows) ^ "\n"

let vs measured paper = Printf.sprintf "%s/%s" measured paper

(* ------------------------------------------------------------- Table 1 *)

let table1 ?(seed = 42) () =
  let configs =
    [ ("603 180MHz (htab)", Machine.ppc603_180, Policy.optimized);
      ("603 180MHz (no htab)", Machine.ppc603_180, Config.optimized_no_htab);
      ("604 185MHz", Machine.ppc604_185, Policy.optimized);
      ("604 200MHz", Machine.ppc604_200, Policy.optimized) ]
  in
  let paper =
    [ (1.8, 4.0, 17.0, 69.0, 33.0);
      (1.7, 3.0, 19.0, 73.0, 36.0);
      (1.6, 4.0, 21.0, 88.0, 39.0);
      (1.6, 4.0, 20.0, 92.0, 41.0) ]
  in
  let rows =
    List.map2
      (fun (name, machine, policy) (p1, p2, p3, p4, p5) ->
        let s = lm ~seed machine policy in
        [ name;
          vs (Report.fmt_ms s.Lmbench.pstart_ms) (Report.fmt_ms p1);
          vs (Report.fmt_us s.Lmbench.ctxsw2_us) (Report.fmt_us p2);
          vs (Report.fmt_us s.Lmbench.pipe_lat_us) (Report.fmt_us p3);
          vs (Report.fmt_mbs s.Lmbench.pipe_bw_mbs) (Report.fmt_mbs p4);
          vs (Report.fmt_mbs s.Lmbench.file_reread_mbs) (Report.fmt_mbs p5) ])
      configs paper
  in
  { title = "Table 1 - LmBench summary for direct (no-htab) TLB reloads [E4]";
    header =
      [ "processor (measured/paper)"; "pstart ms"; "ctxsw us"; "pipe lat us";
        "pipe bw MB/s"; "reread MB/s" ];
    rows;
    notes = [] }

(* ------------------------------------------------------------- Table 2 *)

let table2 ?(seed = 42) () =
  let configs =
    [ ("603 133MHz", Machine.ppc603_133, Config.optimized_precise_flush);
      ("603 133MHz (lazy)", Machine.ppc603_133, Policy.optimized);
      ("604 185MHz", Machine.ppc604_185, Config.optimized_precise_flush);
      ("604 185MHz (tune)", Machine.ppc604_185, Policy.optimized) ]
  in
  let paper =
    [ (3240.0, 6.0, 34.0, 52.0, 26.0);
      (41.0, 6.0, 28.0, 57.0, 32.0);
      (2733.0, 4.0, 22.0, 90.0, 38.0);
      (33.0, 4.0, 21.0, 94.0, 41.0) ]
  in
  let results =
    List.map
      (fun (name, machine, policy) -> (name, lm ~seed machine policy))
      configs
  in
  let rows =
    List.map2
      (fun (name, s) (p1, p2, p3, p4, p5) ->
        [ name;
          vs (Report.fmt_us s.Lmbench.mmap_lat_us) (Report.fmt_us p1);
          vs (Report.fmt_us s.Lmbench.ctxsw2_us) (Report.fmt_us p2);
          vs (Report.fmt_us s.Lmbench.pipe_lat_us) (Report.fmt_us p3);
          vs (Report.fmt_mbs s.Lmbench.pipe_bw_mbs) (Report.fmt_mbs p4);
          vs (Report.fmt_mbs s.Lmbench.file_reread_mbs) (Report.fmt_mbs p5) ])
      results paper
  in
  let speedup_note =
    match results with
    | (_, precise) :: (_, lazy_) :: _ ->
        [ Printf.sprintf
            "603 mmap speedup: measured %s (paper %s: 3240 -> 41 us)"
            (Report.fmt_ratio
               (Metrics.speedup ~from_v:precise.Lmbench.mmap_lat_us
                  ~to_v:lazy_.Lmbench.mmap_lat_us))
            (Report.fmt_ratio (3240.0 /. 41.0)) ]
    | _ -> []
  in
  { title = "Table 2 - LmBench summary for tunable range flushing [E5]";
    header =
      [ "processor (measured/paper)"; "mmap lat us"; "ctxsw us";
        "pipe lat us"; "pipe bw MB/s"; "reread MB/s" ];
    rows;
    notes = speedup_note }

(* ------------------------------------------------------------- Table 3 *)

let table3 ?(seed = 42) () =
  let rows =
    List.map
      (fun p ->
        let m =
          Os_model.measure_row ~machine:Os_model.table3_machine p ~seed ()
        in
        let pr = Os_model.paper_row p in
        [ m.Os_model.r_name;
          vs (Report.fmt_us m.Os_model.null_us)
            (Report.fmt_us pr.Os_model.null_us);
          vs (Report.fmt_us m.Os_model.ctxsw_us)
            (Report.fmt_us pr.Os_model.ctxsw_us);
          vs (Report.fmt_us m.Os_model.pipe_lat_us)
            (Report.fmt_us pr.Os_model.pipe_lat_us);
          vs (Report.fmt_mbs m.Os_model.pipe_bw_mbs)
            (Report.fmt_mbs pr.Os_model.pipe_bw_mbs) ])
      Os_model.all
  in
  { title =
      "Table 3 - LmBench summary for Linux/PPC and other operating systems \
       [E9]";
    header =
      [ "OS (measured/paper)"; "null syscall us"; "ctx switch us";
        "pipe lat us"; "pipe bw MB/s" ];
    rows;
    notes =
      [ "133MHz 604; Rhapsody/MkLinux/AIX are calibrated structural";
        "models - see DESIGN.md." ] }

(* ------------------------------------------------------------------ E1 *)

let e1 ?(seed = 42) () =
  let run policy =
    let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed () in
    let samples = ref 0 and share_sum = ref 0.0 and high_water = ref 0 in
    let probe k =
      let kernel_entries = Kernel.kernel_tlb_entries k in
      let total = Mmu.tlb_occupancy (Kernel.mmu k) in
      if total > 0 then begin
        incr samples;
        share_sum :=
          !share_sum
          +. (100.0 *. float_of_int kernel_entries /. float_of_int total);
        high_water := max !high_water kernel_entries
      end
    in
    let perf =
      Msr.perf k (fun () -> Kbuild.run ~probe k ~params:Kbuild.default_params)
    in
    let share =
      if !samples = 0 then 0.0 else !share_sum /. float_of_int !samples
    in
    (perf, share, !high_water)
  in
  let base, base_share, base_hw = run Policy.baseline in
  let bat, bat_share, bat_hw = run Config.baseline_with_bat in
  let pct_of f =
    Report.fmt_pct
      (Metrics.pct_change
         ~from_v:(float_of_int (f base))
         ~to_v:(float_of_int (f bat)))
  in
  { title = "E1 (sec 5.1) - Reducing the OS TLB footprint with BATs";
    header = [ "metric"; "baseline"; "baseline+BAT"; "change"; "paper" ];
    rows =
      [ [ "TLB misses";
          Report.fmt_int (Perf.tlb_misses base);
          Report.fmt_int (Perf.tlb_misses bat);
          pct_of Perf.tlb_misses;
          "-10% (219M -> 197M)" ];
        [ "htab misses";
          Report.fmt_int base.Perf.htab_misses;
          Report.fmt_int bat.Perf.htab_misses;
          pct_of (fun p -> p.Perf.htab_misses);
          "-20% (1M -> 813k)" ];
        [ "kernel TLB share (mid-job avg, high water)";
          Printf.sprintf "%.0f%% (hw %d)" base_share base_hw;
          Printf.sprintf "%.0f%% (hw %d)" bat_share bat_hw;
          "";
          "33% -> high water 4" ];
        [ "compile busy time (ms)";
          Report.fmt_ms
            (Cost.us_of_cycles ~mhz:185 (Perf.busy_cycles base) /. 1000.);
          Report.fmt_ms
            (Cost.us_of_cycles ~mhz:185 (Perf.busy_cycles bat) /. 1000.);
          pct_of Perf.busy_cycles;
          "-20% (10 min -> 8 min)" ] ];
    notes = [] }

(* ------------------------------------------------------------------ E2 *)

(* The §5.2 measurement E2 and EX3 share: boot a baseline kernel whose
   only varied policy is the VSID multiplier, touch [pages]-page working
   sets of [procs] identically laid-out processes twice over, and read
   the htab histogram.  A hot spot is a full PTEG (8/8 valid): only full
   primary+overflow groups force evictions. *)

type vsid_score = {
  multiplier : int;
  full_ptegs : int;
  evictions : int;
  occupancy_pct : float;
  hit_rate : float;
}

let vsid_score ?(procs = 20) ?(pages = 320) ?(seed = 42) multiplier =
  let policy = Config.baseline_with_scatter_mult multiplier in
  let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed () in
  let tasks = List.init procs (fun _ -> Kernel.spawn k ~data_pages:pages ()) in
  let data_base = Mm.user_text_base + (16 lsl Addr.page_shift) in
  let perf =
    Msr.perf k (fun () ->
        for _ = 1 to 2 do
          List.iter
            (fun t ->
              Kernel.switch_to k t;
              for p = 0 to pages - 1 do
                Kernel.touch k Mmu.Store (data_base + (p lsl Addr.page_shift))
              done)
            tasks
        done)
  in
  let snap = System.snapshot k in
  let hist = snap.System.htab_histogram in
  { multiplier;
    full_ptegs = (if Array.length hist > 8 then hist.(8) else 0);
    evictions = perf.Perf.htab_evicts;
    occupancy_pct =
      Metrics.occupancy_pct ~occupancy:snap.System.htab_valid
        ~capacity:snap.System.htab_capacity;
    hit_rate = Metrics.htab_hit_rate perf }

let e2 ?seed () =
  let rows =
    List.map
      (fun (label, mult, paper) ->
        let s = vsid_score ?seed mult in
        [ label;
          Report.fmt_pct s.occupancy_pct;
          Printf.sprintf "%.1f%%" (100.0 *. s.hit_rate);
          Report.fmt_int s.evictions;
          string_of_int s.full_ptegs;
          paper ])
      [ ("naive (mult=1)", 1, "37% use");
        ("pid shifted (mult=16)", 16, "57% use");
        ( "tuned (mult=897)",
          Kernel_sim.Vsid_alloc.scatter_multiplier,
          "75% use" ) ]
  in
  { title = "E2 (sec 5.2) - Hashed page table efficiency (VSID scatter)";
    header =
      [ "VSID scheme"; "htab use"; "hit rate"; "evictions"; "full PTEGs";
        "paper" ];
    rows;
    notes =
      [ "32 MB of RAM caps live PTEs at ~43% of the 16384-entry htab in";
        "this simulation; the hot-spot signature (evictions, full PTEGs)";
        "is the mechanism being tuned away." ] }

(* ----------------------------------------------------------------- EX3 *)

(* The §5.2 method itself: "adjusting the constant until hot-spots
   disappeared", as a ranking of candidate multipliers, fewest full
   PTEGs then fewest evictions first. *)
let vsid_sweep ?procs ?pages ?seed candidates =
  let scores = List.map (vsid_score ?procs ?pages ?seed) candidates in
  let rank s = (s.full_ptegs, s.evictions) in
  { title = "VSID multiplier tuning sweep (the §5.2 histogram method)";
    header =
      [ "multiplier"; "full PTEGs (hot spots)"; "evictions"; "htab use";
        "hit rate" ];
    rows =
      List.map
        (fun s ->
          [ string_of_int s.multiplier;
            string_of_int s.full_ptegs;
            Report.fmt_int s.evictions;
            Report.fmt_pct s.occupancy_pct;
            Report.fmt_pct (100.0 *. s.hit_rate) ])
        (List.stable_sort (fun a b -> compare (rank a) (rank b)) scores);
    notes =
      [ "lower hot-spot and eviction counts are better; the paper's";
        "authors adjusted the constant 'until hot-spots disappeared'." ] }

(* small primes and odd composites, the powers of two that look
   tempting and fail, and the historical 897 *)
let ex3 ?seed () =
  vsid_sweep ?seed [ 1; 3; 16; 17; 64; 97; 128; 171; 451; 897; 1024 ]

(* ------------------------------------------------------------------ E3 *)

let e3 ?(seed = 42) () =
  let machine = Machine.ppc603_133 in
  let base = lm ~seed machine Policy.baseline in
  let fast = lm ~seed machine Config.baseline_with_fast_reload in
  let pipe_loaded policy =
    let k = Kernel.boot ~machine ~policy ~seed () in
    Lmbench.pipe_latency_loaded_us k
  in
  let base_loaded = pipe_loaded Policy.baseline in
  let fast_loaded = pipe_loaded Config.baseline_with_fast_reload in
  let user_wall policy =
    let k = Kernel.boot ~machine ~policy ~seed () in
    let t = Kernel.spawn k ~text_pages:64 ~data_pages:256 () in
    Kernel.switch_to k t;
    let data_base = Mm.user_text_base + (64 lsl Addr.page_shift) in
    let rng = Rng.create ~seed:17 in
    Msr.us k (fun () ->
        for _ = 1 to 30_000 do
          let page = Rng.int rng 256 in
          Kernel.touch k Mmu.Load (data_base + (page lsl Addr.page_shift));
          Kernel.user_run k ~instrs:16
        done)
  in
  let base_user = user_wall Policy.baseline in
  let fast_user = user_wall Config.baseline_with_fast_reload in
  let row label b f paper =
    [ label; Report.fmt_us b; Report.fmt_us f;
      Report.fmt_pct (Metrics.pct_change ~from_v:b ~to_v:f);
      paper ]
  in
  { title = "E3 (sec 6.1) - Fast TLB reload code";
    header = [ "metric"; "slow (C)"; "fast (asm)"; "change"; "paper" ];
    rows =
      [ row "context switch (8p, us)" base.Lmbench.ctxsw8_us
          fast.Lmbench.ctxsw8_us "-33%";
        row "pipe latency, idle system (us)" base.Lmbench.pipe_lat_us
          fast.Lmbench.pipe_lat_us "(-15% on a live system)";
        row "pipe latency, loaded system (us)" base_loaded fast_loaded
          "-15%";
        row "user loop wall (us)" base_user fast_user "-15%" ];
    notes = [] }

(* ------------------------------------------------------------------ E6 *)

let e6 ?(seed = 42) () =
  let warm = { Kbuild.default_params with Kbuild.jobs = 16 } in
  let measured = { Kbuild.default_params with Kbuild.jobs = 20 } in
  let run policy =
    let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed () in
    Kbuild.run k ~params:warm;
    let live_sum = ref 0 and valid_sum = ref 0 and samples = ref 0 in
    let probe k =
      let live, zombie = Kernel.htab_live_and_zombie k in
      live_sum := !live_sum + live;
      valid_sum := !valid_sum + live + zombie;
      incr samples
    in
    let perf = Msr.perf k (fun () -> Kbuild.run ~probe k ~params:measured) in
    let n = max 1 !samples in
    (perf, !live_sum / n, !valid_sum / n)
  in
  let off, off_live, off_valid = run Config.optimized_no_reclaim in
  let on_, on_live, on_valid = run Policy.optimized in
  { title = "E6 (sec 7) - Idle-task zombie PTE reclaim";
    header = [ "metric"; "no reclaim"; "idle reclaim"; "paper" ];
    rows =
      [ [ "evict ratio (evicts/reloads)";
          Report.fmt_pct (100.0 *. Metrics.evict_ratio off);
          Report.fmt_pct (100.0 *. Metrics.evict_ratio on_);
          ">90% -> 30%" ];
        [ "htab live entries (mid-job avg)";
          string_of_int off_live;
          string_of_int on_live;
          "600-700 -> 1400-2200" ];
        [ "htab valid incl. zombies (avg)";
          Printf.sprintf "%d (%s)" off_valid
            (Report.fmt_pct
               (Metrics.occupancy_pct ~occupancy:off_valid ~capacity:16384));
          Printf.sprintf "%d (%s)" on_valid
            (Report.fmt_pct
               (Metrics.occupancy_pct ~occupancy:on_valid ~capacity:16384));
          "fills up -> zombies swept" ];
        [ "htab hit rate on TLB miss";
          Report.fmt_pct (100.0 *. Metrics.htab_hit_rate off);
          Report.fmt_pct (100.0 *. Metrics.htab_hit_rate on_);
          "85% -> 98%" ];
        [ "zombies reclaimed";
          Report.fmt_int off.Perf.zombies_reclaimed;
          Report.fmt_int on_.Perf.zombies_reclaimed;
          "-" ] ];
    notes = [] }

(* ------------------------------------------------------------------ E7 *)

let e7 ?(seed = 42) () =
  let run policy =
    Kbuild.measure ~machine:Machine.ppc604_185 ~policy ~seed ()
  in
  let off = run Config.clearing_off in
  let rows =
    List.map
      (fun (label, policy, paper) ->
        let r = run policy in
        let p = r.Kbuild.perf in
        [ label;
          Report.fmt_ms (r.Kbuild.busy_us /. 1000.);
          Printf.sprintf "%.2fx" (r.Kbuild.busy_us /. off.Kbuild.busy_us);
          Report.fmt_int (Perf.cache_misses p);
          Report.fmt_int p.Perf.prezeroed_hits;
          Report.fmt_int p.Perf.pages_cleared_idle;
          paper ])
      [ ("no idle clearing", Config.clearing_off, "baseline");
        ( "cached + list",
          Config.clearing_cached_list,
          "~2x slower, more cache misses" );
        ( "uncached, no list",
          Config.clearing_uncached_nolist,
          "no loss or gain" );
        ("uncached + list", Config.clearing_uncached_list, "much faster") ]
  in
  { title = "E7 (sec 9) - Idle-task page clearing";
    header =
      [ "design"; "busy ms"; "vs off"; "cache misses"; "prezero hits";
        "cleared"; "paper" ];
    rows;
    notes = [] }

(* ------------------------------------------------------------------ E8 *)

let e8 ?(seed = 42) () =
  let run policy =
    Kbuild.measure ~machine:Machine.ppc604_185 ~policy ~seed ()
  in
  let cached = run Policy.optimized in
  let uncached = run Config.optimized_pt_uncached in
  let row label (r : Kbuild.result) =
    let p = r.Kbuild.perf in
    [ label;
      Report.fmt_ms (r.Kbuild.busy_us /. 1000.);
      Report.fmt_int p.Perf.dcache_misses;
      Report.fmt_int p.Perf.dcache_bypasses;
      Report.fmt_int p.Perf.mem_refs ]
  in
  { title = "E8 (sec 8) - Cache pollution from caching page tables (ablation)";
    header =
      [ "page-table refs"; "busy ms"; "dcache misses"; "bypasses";
        "table-walk refs" ];
    rows = [ row "cached (default)" cached; row "cache-inhibited" uncached ];
    notes =
      [ "paper: argues caching page tables pollutes (up to 18 useless";
        "lines per reload) but measures nothing; this ablation finds the";
        "inhibited walk costs more than the pollution it avoids." ] }

(* ----------------------------------------------------------------- E10 *)

let e10 ?(seed = 42) () =
  let machine = Machine.ppc603_133 in
  let run cutoff =
    let policy = Config.optimized_with_cutoff cutoff in
    let k = Kernel.boot ~machine ~policy ~seed () in
    let t = Kernel.spawn k () in
    Kernel.switch_to k t;
    Kernel.user_run k ~instrs:2000;
    let rng = Rng.create ~seed:5 in
    let data_base = Mm.user_text_base + (16 lsl Addr.page_shift) in
    let perf =
      Msr.perf k (fun () ->
          for _ = 1 to 40 do
            let pages = 8 + Rng.int rng 104 in
            let ea = Kernel.sys_mmap k ~pages ~writable:true in
            for i = 0 to 7 do
              Kernel.touch k Mmu.Store (ea + (i lsl Addr.page_shift))
            done;
            Kernel.sys_munmap k ~ea ~pages;
            for i = 0 to 15 do
              Kernel.touch k Mmu.Load (data_base + (i lsl Addr.page_shift))
            done;
            Kernel.user_run k ~instrs:500
          done)
    in
    Kernel.sys_exit k;
    perf
  in
  let rows =
    List.map
      (fun (label, cutoff) ->
        let p = run cutoff in
        [ label;
          Report.fmt_us (Cost.us_of_cycles ~mhz:133 p.Perf.cycles /. 40.0);
          Report.fmt_int (Perf.tlb_misses p);
          Report.fmt_int p.Perf.flush_pte_searches;
          Report.fmt_int p.Perf.flush_context_resets ])
      [ ("precise (no cutoff)", None);
        ("cutoff 5", Some 5);
        ("cutoff 10", Some 10);
        ("cutoff 20 (paper)", Some 20);
        ("cutoff 40", Some 40);
        ("cutoff 120 (never)", Some 120) ]
  in
  { title = "E10 (sec 7) - Range-flush cutoff sweep (the 20-page knee)";
    header =
      [ "policy"; "us per mmap+munmap"; "TLB misses"; "PTE flush searches";
        "context resets" ];
    rows;
    notes =
      [ "paper: the 20-page cutoff brings mmap latency from 3240us to";
        "41us at no cost in TLB misses." ] }

(* ----------------------------------------------------------------- E11 *)

let e11 ?(seed = 42) () =
  let run policy =
    Workloads.Xserver.measure ~machine:Machine.ppc604_185 ~policy ~seed ()
  in
  let off = run Policy.optimized in
  let on_ = run Config.optimized_fb_bat in
  let row label (r : Workloads.Xserver.result) =
    [ label;
      Report.fmt_us r.Workloads.Xserver.us_per_round;
      Report.fmt_int (Perf.tlb_misses r.Workloads.Xserver.perf);
      Report.fmt_int r.Workloads.Xserver.perf.Perf.htab_reloads;
      Report.fmt_int (Perf.cache_misses r.Workloads.Xserver.perf) ]
  in
  { title =
      "E11 (sec 5.1 proposal) - Per-process frame-buffer BAT (implemented)";
    header =
      [ "frame buffer mapping"; "us/request"; "TLB misses"; "htab reloads";
        "cache misses" ];
    rows = [ row "page tables (status quo)" off; row "dedicated BAT" on_ ];
    notes =
      [ Printf.sprintf "request latency change: %s; TLB misses change: %s"
          (Report.fmt_pct
             (Metrics.pct_change ~from_v:off.Workloads.Xserver.us_per_round
                ~to_v:on_.Workloads.Xserver.us_per_round))
          (Report.fmt_pct
             (Metrics.pct_change
                ~from_v:
                  (float_of_int (Perf.tlb_misses off.Workloads.Xserver.perf))
                ~to_v:
                  (float_of_int (Perf.tlb_misses on_.Workloads.Xserver.perf))))
      ] }

(* ----------------------------------------------------------------- E12 *)

let e12 ?(seed = 42) () =
  let run policy =
    Kbuild.measure ~machine:Machine.ppc604_185 ~policy ~seed ()
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let r = run policy in
        let p = r.Kbuild.perf in
        [ label;
          Report.fmt_ms (r.Kbuild.busy_us /. 1000.);
          Report.fmt_int p.Perf.dcache_misses;
          Report.fmt_int p.Perf.dcache_writebacks ])
      [ ("optimized", Policy.optimized);
        ("optimized + idle cache lock", Config.optimized_idle_lock);
        ("cached clearing (no lock)", Config.clearing_cached_list);
        ( "cached clearing + lock",
          { Config.clearing_cached_list with Policy.idle_cache_lock = true }
        ) ]
  in
  { title = "E12 (sec 10.1 future work) - Locking the cache in idle";
    header = [ "policy"; "busy ms"; "dcache misses"; "write-backs" ];
    rows;
    notes =
      [ "the lock removes idle-task pollution (reclaim scans, cached";
        "clearing) at the cost of making locked-idle work uncached." ] }

(* ----------------------------------------------------------------- E13 *)

let e13 ?(seed = 42) () =
  let machine = Machine.ppc603_133 in
  let base = lm ~seed machine Policy.optimized in
  let pre = lm ~seed machine Config.optimized_preload in
  let row label b p =
    [ label; Report.fmt_us b; Report.fmt_us p;
      Report.fmt_pct (Metrics.pct_change ~from_v:b ~to_v:p) ]
  in
  { title = "E13 (sec 10.2 future work) - Cache preloads on switch";
    header = [ "metric"; "no preload"; "preload"; "change" ];
    rows =
      [ row "context switch 2p (us)" base.Lmbench.ctxsw2_us
          pre.Lmbench.ctxsw2_us;
        row "context switch 8p (us)" base.Lmbench.ctxsw8_us
          pre.Lmbench.ctxsw8_us;
        row "pipe latency (us)" base.Lmbench.pipe_lat_us
          pre.Lmbench.pipe_lat_us ];
    notes =
      [ "a (mildly) negative result: in steady-state switching the";
        "incoming task's lines are already hot, so the hints only cost." ]
  }

(* ----------------------------------------------------------------- E14 *)

let e14 ?(seed = 42) () =
  let module Mu = Workloads.Multiuser in
  let run policy =
    Mu.measure ~machine:Machine.ppc604_133 ~policy ~seed ()
  in
  let base = run Policy.baseline in
  let opt = run Policy.optimized in
  { title = "E14 (sec 1) - Aggregate multiuser wall-clock (the headline)";
    header = [ "metric"; "unoptimized"; "optimized"; "gain" ];
    rows =
      [ [ "busy time (ms)";
          Report.fmt_ms (base.Mu.busy_us /. 1000.);
          Report.fmt_ms (opt.Mu.busy_us /. 1000.);
          Report.fmt_ratio
            (Metrics.speedup ~from_v:base.Mu.busy_us ~to_v:opt.Mu.busy_us) ];
        [ "keystroke latency (us)";
          Report.fmt_us base.Mu.keystroke_us;
          Report.fmt_us opt.Mu.keystroke_us;
          Report.fmt_ratio
            (Metrics.speedup ~from_v:base.Mu.keystroke_us
               ~to_v:opt.Mu.keystroke_us) ];
        [ "shell utility start (us)";
          Report.fmt_us base.Mu.utility_us;
          Report.fmt_us opt.Mu.utility_us;
          Report.fmt_ratio
            (Metrics.speedup ~from_v:base.Mu.utility_us
               ~to_v:opt.Mu.utility_us) ];
        [ "TLB misses";
          Report.fmt_int (Perf.tlb_misses base.Mu.perf);
          Report.fmt_int (Perf.tlb_misses opt.Mu.perf);
          "" ] ];
    notes =
      [ "paper (sec 1): 10% to several orders of magnitude, workload-";
        "dependent (the orders-of-magnitude cases are mmap-bound: T2)." ]
  }

(* ----------------------------------------------------------------- E15 *)

let e15 ?(seed = 42) () =
  let run n_ptes =
    let machine = { Machine.ppc604_185 with Machine.htab_ptes = n_ptes } in
    let k = Kernel.boot ~machine ~policy:Policy.optimized ~seed () in
    let occupancy = ref 0 and samples = ref 0 in
    let probe k =
      occupancy := !occupancy + Kernel.htab_occupancy k;
      incr samples
    in
    let perf =
      Msr.perf k (fun () ->
          Kbuild.run ~probe k ~params:Kbuild.default_params)
    in
    (perf, !occupancy / max 1 !samples)
  in
  let rows =
    List.map
      (fun n_ptes ->
        let perf, occ = run n_ptes in
        [ Printf.sprintf "%d PTEs (%d KB)" n_ptes (n_ptes * 8 / 1024);
          Report.fmt_pct
            (Metrics.occupancy_pct ~occupancy:occ ~capacity:n_ptes);
          Report.fmt_pct (100.0 *. Metrics.htab_hit_rate perf);
          Report.fmt_pct (100.0 *. Metrics.evict_ratio perf);
          Report.fmt_ms
            (Cost.us_of_cycles ~mhz:185 (Perf.busy_cycles perf) /. 1000.) ])
      [ 2048; 4096; 8192; 16384; 32768 ]
  in
  { title = "E15 (sec 7 remark) - Hash table sizing sweep";
    header =
      [ "htab size"; "avg occupancy"; "hit rate"; "evict ratio"; "busy ms" ];
    rows;
    notes =
      [ "paper kept 16384 PTEs fixed; a smaller table raises the use";
        "percentage (and frees RAM) at the cost of evictions." ] }

(* ----------------------------------------------------------------- E16 *)

let e16 ?(seed = 42) () =
  let warm = { Kbuild.default_params with Kbuild.jobs = 16 } in
  let measured = { Kbuild.default_params with Kbuild.jobs = 20 } in
  let run policy =
    let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed () in
    Kbuild.run k ~params:warm;
    Msr.perf k (fun () -> Kbuild.run k ~params:measured)
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let p = run policy in
        [ label;
          Report.fmt_pct (100.0 *. Metrics.evict_ratio p);
          Report.fmt_int p.Perf.htab_evicts_live;
          Report.fmt_pct (100.0 *. Metrics.htab_hit_rate p);
          Report.fmt_ms
            (Cost.us_of_cycles ~mhz:185 (Perf.busy_cycles p) /. 1000.) ])
      [ ("arbitrary, no reclaim", Config.optimized_no_reclaim);
        ("second chance, no reclaim", Config.second_chance_no_reclaim);
        ("zombie-aware (rejected design)", Config.zombie_aware_no_reclaim);
        ("arbitrary + idle reclaim (paper)", Policy.optimized) ]
  in
  { title = "E16 (sec 7 ablation) - htab replacement policy vs idle reclaim";
    header =
      [ "policy"; "evict ratio"; "live evictions"; "hit rate"; "busy ms" ];
    rows;
    notes =
      [ "second chance avoids displacing live entries; zombie-aware";
        "eviction (the rejected design) fixes victims but pays liveness";
        "checks in the reload path; the idle task attacks the cause." ] }

(* ----------------------------------------------------- E17 / E18 / E19 *)

(* One experiment per service model: tail latency of the server-shaped
   workload across MMU configurations.  The latency histograms are the
   workload's own (always on), so these tables are byte-identical with
   and without span recording; percentiles use the integer Hist.percentile
   for the same reason.  (These were once drafted as E15-E17 — ids the
   htab sizing and replacement-policy experiments already owned, which
   is exactly the collision [check_unique] now rejects at registration
   time; the server suite registered as E17-E19 instead.) *)

let server_configs =
  [ ("baseline", Policy.baseline);
    ("optimized", Policy.optimized);
    ("precise flush", Config.optimized_precise_flush);
    ("no idle reclaim", Config.optimized_no_reclaim) ]

let server_experiment ~id ~model ~seed ~notes =
  let module Sv = Workloads.Server in
  (* request count from the boot configuration's --requests knob; its
     default is the historical 200, so committed baselines are
     byte-identical *)
  let params =
    { Sv.default_params with Sv.model; Sv.requests = Sv.boot_requests () }
  in
  let mhz = Machine.ppc604_185.Machine.mhz in
  let rows =
    List.map
      (fun (label, policy) ->
        let r =
          Sv.measure ~machine:Machine.ppc604_185 ~policy ~params ~seed
            ~label ()
        in
        let pc p = Cost.us_of_cycles ~mhz (Hist.percentile r.Sv.hist p) in
        [ label;
          Report.fmt_int r.Sv.requests;
          Report.fmt_us (pc 0.50);
          Report.fmt_us (pc 0.99);
          Report.fmt_us (pc 0.999);
          Report.fmt_us (Cost.us_of_cycles ~mhz (Hist.max_value r.Sv.hist));
          Report.fmt_ms (r.Sv.busy_us /. 1000.) ])
      server_configs
  in
  { title =
      Printf.sprintf "%s (server) - Request tail latency, %s service model"
        id (Sv.model_name model);
    header =
      [ "config"; "requests"; "p50 us"; "p99 us"; "p999 us"; "max us";
        "busy ms" ];
    rows;
    notes }

let e17 ?(seed = 42) () =
  server_experiment ~id:"E17" ~model:Workloads.Server.Fork_exec ~seed
    ~notes:
      [ "a process per request (inetd/CGI): every request pays fork +";
        "exec + exit, so flush policy and VSID recycling sit directly on";
        "the latency path and the tail amplifies them." ]

let e18 ?(seed = 42) () =
  server_experiment ~id:"E18" ~model:Workloads.Server.Pool ~seed
    ~notes:
      [ "pre-forked workers recycled every 32 requests: steady-state";
        "switching, with periodic address-space churn off the request";
        "path (the recycle happens between requests)." ]

let e19 ?(seed = 42) () =
  server_experiment ~id:"E19" ~model:Workloads.Server.Shared_mm ~seed
    ~notes:
      [ "thread-like workers share the dispatcher's address space: no";
        "exec churn at all; what remains is switch cost and the working";
        "set's TLB/htab footprint." ]

(* ------------------------------------------------------------------ E20 *)

(* The long-horizon run ROADMAP item 3 asks for: the fork/exec server
   driven across the 20-bit context-counter wrap the paper hand-waves.
   Fork_exec consumes ~2 context ids per request (the fork's new mm plus
   the exec's renewal), so reaching the wrap naturally would take ~500k
   requests; instead the counter is pre-aged (Kernel.age_address_spaces,
   an O(1) shim) to [ctx_space - requests] ids before the run, which
   puts the wrap — and its flush-everything escape hatch — near the
   midpoint of any requested length.  Run by name only, like the
   diagnostics: its request count comes from the process-wide
   --requests knob, so default sweeps and committed baselines never see
   it. *)
let e20 ?(seed = 42) () =
  let module Sv = Workloads.Server in
  let module Va = Kernel_sim.Vsid_alloc in
  let requests = Sv.boot_requests () in
  let params =
    { Sv.default_params with
      Sv.model = Workloads.Server.Fork_exec;
      Sv.requests = requests }
  in
  let machine = Machine.ppc604_185 in
  let mhz = machine.Machine.mhz in
  let rows =
    List.map
      (fun (label, policy) ->
        let k = Kernel.boot ~machine ~policy ~seed () in
        let sp = Kernel.span k in
        if Span.enabled sp then Span.set_label sp label;
        let rcd = Kernel.recorder k in
        if Recorder.enabled rcd then Recorder.set_label rcd label;
        (* pid-based allocators have no counter to wrap: they run the
           same horizon un-aged, as the no-wrap control group *)
        let counter_based =
          Va.source (Kernel.vsid_alloc k) = Va.Context_counter
        in
        if counter_based then
          Kernel.age_address_spaces k ~contexts:(Va.ctx_space - requests);
        let (hist, _), perf = Msr.region k (fun () -> Sv.run k ~params) in
        let wraps = Va.wraps (Kernel.vsid_alloc k) in
        let pc p = Cost.us_of_cycles ~mhz (Hist.percentile hist p) in
        [ label;
          Report.fmt_int requests;
          (if counter_based then Report.fmt_int wraps else "n/a (pid ids)");
          Report.fmt_us (pc 0.50);
          Report.fmt_us (pc 0.99);
          Report.fmt_us (pc 0.999);
          Report.fmt_ms
            (Cost.us_of_cycles ~mhz (Perf.busy_cycles perf) /. 1000.) ])
      server_configs
  in
  { title =
      "E20 (server) - Long-horizon fork/exec run across the context-counter \
       wrap";
    header =
      [ "config"; "requests"; "vsid wraps"; "p50 us"; "p99 us"; "p999 us";
        "busy ms" ];
    rows;
    notes =
      [ "run by name only (requests come from --requests; default 200).";
        "the context counter is pre-aged to ctx_space - requests ids, so";
        "the 20-bit wrap and its flush-everything escape hatch fire near";
        "the midpoint of the run — watch the vsid_wraps counter and the";
        "recorder's wrap-burst detector around that sample." ] }

(* ----------------------------------------------------------------- EX1 *)

let ex1 ?(seed = 42) () =
  let rows =
    List.map
      (fun machine ->
        let s = lm ~seed machine Policy.optimized in
        [ machine.Machine.name;
          Report.fmt_us s.Lmbench.null_us;
          Report.fmt_us s.Lmbench.ctxsw2_us;
          Report.fmt_us s.Lmbench.pipe_lat_us;
          Report.fmt_mbs s.Lmbench.pipe_bw_mbs;
          Report.fmt_mbs s.Lmbench.file_reread_mbs;
          Report.fmt_ms s.Lmbench.pstart_ms ])
      Machine.all
  in
  { title = "EX1 (extra) - LmBench across all modeled processors";
    header =
      [ "processor"; "null us"; "ctxsw us"; "pipe lat us"; "pipe bw MB/s";
        "reread MB/s"; "pstart ms" ];
    rows;
    notes = [] }

(* ----------------------------------------------------------------- EX2 *)

let ex2 ?(seed = 42) () =
  let module Pm = Workloads.Parmake in
  let rows =
    List.map
      (fun jobserver ->
        let params = { Pm.default_params with Pm.jobserver } in
        let r =
          Pm.measure ~machine:Machine.ppc604_185 ~policy:Policy.optimized
            ~params ~seed ()
        in
        [ Printf.sprintf "-j%d" jobserver;
          Report.fmt_ms (r.Pm.wall_us /. 1000.);
          Report.fmt_ms (r.Pm.busy_us /. 1000.);
          Report.fmt_pct (100.0 *. r.Pm.idle_fraction);
          Report.fmt_int r.Pm.perf.Perf.context_switches ])
      [ 1; 2; 4; 8 ]
  in
  { title = "EX2 (extra) - Parallel make: I/O overlap vs -jN";
    header = [ "jobserver"; "wall ms"; "busy ms"; "idle"; "switches" ];
    rows;
    notes =
      [ "-j1 serialises every disk wait into idle time; wider jobservers";
        "overlap them with computation until the CPU saturates." ] }

(* ----------------------------------------------------------------- EX4 *)

let ex4 ?(seed = 42) () =
  let cost machine size_kb =
    let k = Kernel.boot ~machine ~policy:Policy.optimized ~seed () in
    Lmbench.ctx_switch_sized_us k ~nprocs:4 ~size_kb
  in
  let sizes = [ 0; 16; 64; 128; 256 ] in
  let rows =
    List.map
      (fun size_kb ->
        [ Printf.sprintf "%d KB" size_kb;
          Report.fmt_us (cost Machine.ppc603_133 size_kb);
          Report.fmt_us (cost Machine.ppc604_133 size_kb) ])
      sizes
  in
  { title = "EX4 (extra) - lat_ctx working-set sweep (TLB reach)";
    header =
      [ "per-process working set"; "603 133MHz (128 TLB)";
        "604 133MHz (256 TLB)" ];
    rows;
    notes =
      [ "four processes re-touch their working sets between switches;";
        "once the combined footprint exceeds TLB reach, every switch";
        "pays reloads - sooner on the 603's half-size TLB." ] }

(* ----------------------------------------------------------------- EX5 *)

(* §10: "We've made these changes on a step-by-step basis so we could
   evaluate each change and study not only how it changed performance
   but why ... many optimizations did not interact as we expected them
   to and the end effect was not the sum of all the optimizations." *)
let ex5 ?(seed = 42) () =
  let module Mu = Workloads.Multiuser in
  let ladder =
    [ ("baseline", Policy.baseline);
      ( "+ BAT kernel mapping",
        { Policy.baseline with Policy.bat_kernel_mapping = true } );
      ( "+ VSID scatter (897)",
        { Policy.baseline with
          Policy.bat_kernel_mapping = true;
          vsid_multiplier = Kernel_sim.Vsid_alloc.scatter_multiplier } );
      ( "+ fast reload handlers",
        { Policy.baseline with
          Policy.bat_kernel_mapping = true;
          vsid_multiplier = Kernel_sim.Vsid_alloc.scatter_multiplier;
          fast_reload = true } );
      ( "+ fast entry paths",
        { Policy.baseline with
          Policy.bat_kernel_mapping = true;
          vsid_multiplier = Kernel_sim.Vsid_alloc.scatter_multiplier;
          fast_reload = true;
          fast_paths = true } );
      ( "+ lazy flushing (cutoff 20)",
        { Policy.baseline with
          Policy.bat_kernel_mapping = true;
          vsid_multiplier = Kernel_sim.Vsid_alloc.scatter_multiplier;
          fast_reload = true;
          fast_paths = true;
          vsid_source = Kernel_sim.Vsid_alloc.Context_counter;
          flush_cutoff = Some Policy.flush_cutoff_pages } );
      ("+ idle reclaim + page clearing", Policy.optimized) ]
  in
  let base_busy = ref 0.0 in
  let rows =
    List.map
      (fun (label, policy) ->
        let r = Mu.measure ~machine:Machine.ppc604_133 ~policy ~seed () in
        if !base_busy = 0.0 then base_busy := r.Mu.busy_us;
        [ label;
          Report.fmt_ms (r.Mu.busy_us /. 1000.);
          Report.fmt_us r.Mu.keystroke_us;
          Report.fmt_ratio
            (Metrics.speedup ~from_v:!base_busy ~to_v:r.Mu.busy_us) ])
      ladder
  in
  { title = "EX5 (sec 10 method) - The optimization ladder, step by step";
    header =
      [ "kernel"; "multiuser busy ms"; "keystroke us"; "cumulative gain" ];
    rows;
    notes =
      [ "the paper's own methodology: each change evaluated on top of";
        "the previous ones (and, as they warn, the steps do not sum)." ]
  }

(* ----------------------------------------------------------------- EX6 *)

(* §4: "Each of the test results comes from more than 10 of the
   benchmark runs averaged.  We ignore benchmark differences that were
   sporadic."  The simulation is deterministic per seed, so seeds play
   the role of runs: the key conclusions must hold across them. *)
let ex6 ?(seed = 42) () =
  let seeds = List.init 5 (fun i -> seed + (i * 101)) in
  let stats xs =
    let n = float_of_int (List.length xs) in
    let mean = List.fold_left ( +. ) 0.0 xs /. n in
    let mn = List.fold_left min infinity xs in
    let mx = List.fold_left max neg_infinity xs in
    (mn, mean, mx)
  in
  let fmt (mn, mean, mx) unit_ =
    Printf.sprintf "%s / %s / %s %s" (Report.fmt_us mn) (Report.fmt_us mean)
      (Report.fmt_us mx) unit_
  in
  let machine = Machine.ppc603_133 in
  let per_seed f = List.map f seeds in
  let speedups =
    per_seed (fun seed ->
        let lat policy =
          Lmbench.mmap_latency_us (Kernel.boot ~machine ~policy ~seed ())
        in
        lat Config.optimized_precise_flush /. lat Policy.optimized)
  in
  let pipe_bw =
    per_seed (fun seed ->
        Lmbench.pipe_bandwidth_mbs
          (Kernel.boot ~machine ~policy:Policy.optimized ~seed ()))
  in
  let ctx =
    per_seed (fun seed ->
        Lmbench.ctx_switch_us
          (Kernel.boot ~machine ~policy:Policy.optimized ~seed ())
          ~nprocs:2)
  in
  let evict_off =
    per_seed (fun seed ->
        let k =
          Kernel.boot ~machine:Machine.ppc604_185
            ~policy:Config.optimized_no_reclaim ~seed ()
        in
        Kbuild.run k ~params:{ Kbuild.default_params with Kbuild.jobs = 16 };
        let p =
          Msr.perf k (fun () ->
              Kbuild.run k
                ~params:{ Kbuild.default_params with Kbuild.jobs = 8 })
        in
        100.0 *. Metrics.evict_ratio p)
  in
  { title = "EX6 (sec 4 method) - Stability across runs (seeds)";
    header = [ "metric"; "min / mean / max over 5 seeds" ];
    rows =
      [ [ "T2 mmap speedup (x)"; fmt (stats speedups) "" ];
        [ "pipe bandwidth 603/133 (MB/s)"; fmt (stats pipe_bw) "" ];
        [ "ctx switch 603/133 (us)"; fmt (stats ctx) "" ];
        [ "E6 evict ratio, no reclaim (%)"; fmt (stats evict_off) "" ] ];
    notes =
      [ "the paper averaged 10+ runs and ignored sporadic differences;";
        "here seeds are runs, and the conclusions hold across them." ] }

(* ----------------------------------------------------------------- EX7 *)

(* Interactive responsiveness under contention: the editor's
   wake-to-done latency while a compile grinds — scheduling delay plus
   the cost of re-faulting whatever the compile displaced. *)
let ex7 ?(seed = 42) () =
  let module I = Workloads.Interactive in
  let run policy =
    I.measure ~machine:Machine.ppc604_133 ~policy ~seed ()
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let r = run policy in
        [ label;
          Report.fmt_us r.I.mean_response_us;
          Report.fmt_us r.I.worst_response_us;
          Report.fmt_int (Perf.tlb_misses r.I.perf) ])
      [ ("unoptimized", Policy.baseline);
        ("optimized", Policy.optimized) ]
  in
  { title = "EX7 (extra) - Keystroke response under a background compile";
    header =
      [ "kernel"; "mean response us"; "worst response us"; "TLB misses" ];
    rows;
    notes =
      [ "wake-to-done latency of an editor burst with a compile always";
        "runnable: the user-feel number behind the sec-1 claims." ] }

(* -------------------------------------------------------- diagnostics *)

(* D1 concentrates the translation sequences a missed TLB invalidate
   corrupts: repeated store -> fork (COW downgrade + precise per-page
   flush) -> store again (COW break), plus exec image replacement over
   the same addresses, under the BAT + precise-flush policy where no
   context reset or kernel TLB churn would mask a stale entry.  It is
   correct by construction — a shadow-checked run reports zero
   divergences — until a flush bug is planted (MMU_SIM_BUG=stale-tlb),
   which makes it the smoke workload proving the shadow checker fails
   loudly.  Diagnostic only: not in the default registry, so results
   documents and baselines are unchanged. *)
let d1 ?(seed = 42) () =
  let k =
    Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Config.optimized_precise_flush ~seed ()
  in
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
  let generations = 8 in
  for _ = 1 to generations do
    (* fork downgrades every private parent page to read-only COW and
       precise-flushes the parent's translations; the parent's next
       store must fault and break the sharing *)
    let child = Kernel.sys_fork k in
    store_all ();
    (* the child replaces its image (whole-mm precise flush) and then
       repopulates the very same effective addresses *)
    Kernel.switch_to k child;
    Kernel.sys_exec k ~text_pages ~data_pages ~stack_pages;
    Kernel.user_run k ~instrs:500;
    store_all ();
    Kernel.sys_exit k;
    Kernel.switch_to k parent
  done;
  let p = Kernel.perf k in
  { title =
      "D1 (diagnostic) - fork/COW/exec flush stress for the shadow checker";
    header = [ "metric"; "value" ];
    rows =
      [ [ "page faults"; Report.fmt_int p.Perf.page_faults ];
        [ "TLB misses"; Report.fmt_int (Perf.tlb_misses p) ];
        [ "PTE flush searches"; Report.fmt_int p.Perf.flush_pte_searches ];
        [ "context switches"; Report.fmt_int p.Perf.context_switches ] ];
    notes =
      [ "diagnostic workload (run by name only); every parent store after";
        "a fork is a COW break that a skipped TLB invalidate turns into";
        "a stale translation the shadow reference MMU must catch." ] }

(* D2 concentrates the cross-CPU sequence a skipped TLB shootdown
   corrupts: two CPUs sharing one address space (clone-style threads),
   both TLBs warmed over the same user pages; then the thread on CPU 0
   execs — under the precise-flush policy every mapped page is flushed
   locally and shot down on CPU 1 — and the sibling on CPU 1 touches
   the same addresses again.  Delivered shootdowns make those touches
   cold misses that demand-fault fresh frames; a skipped shootdown
   (MMU_SIM_BUG=skip-shootdown) leaves CPU 1's TLB answering with the
   old frame while the reference translator sees no mapping at all —
   a guaranteed divergence on the first post-exec touch.  Correct by
   construction otherwise: a shadow-checked run reports zero
   divergences.  Diagnostic only: not in the default registry, so
   results documents and baselines are unchanged. *)
let d2 ?(seed = 42) () =
  let k =
    Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Config.optimized_precise_flush ~seed ~cpus:2 ()
  in
  let text_pages = 8 and data_pages = 8 and stack_pages = 4 in
  let data_base = Mm.user_text_base + (text_pages lsl Addr.page_shift) in
  let touch_all () =
    for i = 0 to data_pages - 1 do
      Kernel.touch k Mmu.Store (data_base + (i lsl Addr.page_shift))
    done
  in
  (* thread A on CPU 0 ... *)
  let a = Kernel.spawn k ~text_pages ~data_pages ~stack_pages () in
  Kernel.set_active_cpu k 0;
  Kernel.switch_to k a;
  Kernel.user_run k ~instrs:2000;
  touch_all ();
  (* ... and sibling B (same mm, own task) on CPU 1, its TLB warmed
     over the very same pages *)
  let b = Kernel.spawn_thread k ~peer:a in
  Kernel.set_active_cpu k 1;
  Kernel.switch_to k b;
  Kernel.user_run k ~instrs:2000;
  touch_all ();
  let generations = 4 in
  for _ = 1 to generations do
    (* A replaces the shared image on CPU 0: whole-mm precise flush,
       one shootdown round to CPU 1 covering every mapped page *)
    Kernel.set_active_cpu k 0;
    Kernel.sys_exec k ~text_pages ~data_pages ~stack_pages;
    Kernel.user_run k ~instrs:500;
    touch_all ();
    (* B touches the same addresses on CPU 1 through its own TLB *)
    Kernel.set_active_cpu k 1;
    Kernel.user_run k ~instrs:500;
    touch_all ()
  done;
  let p = Kernel.perf k in
  let mmu = Kernel.mmu k in
  let cpu_misses cpu =
    Mmu.cpu_itlb_misses mmu ~cpu + Mmu.cpu_dtlb_misses mmu ~cpu
  in
  { title =
      "D2 (diagnostic) - cross-CPU exec/shootdown stress for the shadow \
       checker";
    header = [ "metric"; "value" ];
    rows =
      [ [ "TLB shootdown rounds"; Report.fmt_int p.Perf.tlb_shootdowns ];
        [ "IPIs sent"; Report.fmt_int p.Perf.ipis_sent ];
        [ "remote TLB invalidates";
          Report.fmt_int p.Perf.remote_tlb_invalidates ];
        [ "page faults"; Report.fmt_int p.Perf.page_faults ];
        [ "TLB misses (cpu0 + cpu1)";
          Printf.sprintf "%s + %s"
            (Report.fmt_int (cpu_misses 0))
            (Report.fmt_int (cpu_misses 1)) ] ];
    notes =
      [ "diagnostic workload (run by name only); every post-exec touch on";
        "the sibling CPU relies on the exec's shootdown round having";
        "invalidated that CPU's TLB - skip it and the shadow reference";
        "MMU must catch the stale remote translation." ] }

(* ----------------------------------------------------------- registry *)

type spec = {
  id : string;
  name : string;
  section : string;
  what : string;
  run : ?seed:int -> unit -> table;
}

let spec id name section what run = { id; name; section; what; run }

let registry =
  [ spec "T1" "LmBench with direct (no-htab) TLB reloads" "sec 6.2"
      "Table 1: the four processor configs with the htab bypassed, \
       measured cells next to the paper's" table1;
    spec "T2" "LmBench with tunable range flushing" "sec 7"
      "Table 2: precise vs lazy flushing; the 3240us -> 41us mmap \
       headline" table2;
    spec "T3" "OS comparison on the 133MHz 604" "sec 4"
      "Table 3: Linux/PPC vs the Rhapsody/MkLinux/AIX personality \
       models" table3;
    spec "E1" "BAT-mapping the kernel" "sec 5.1"
      "TLB/htab miss reduction and kernel TLB share when the kernel \
       lives in BAT registers" e1;
    spec "E2" "VSID scatter vs htab hot spots" "sec 5.2"
      "naive vs pid-shifted vs tuned (897) VSID allocation: htab use, \
       hit rate, evictions, full PTEGs" e2;
    spec "E3" "Fast TLB reload code" "sec 6.1"
      "hand-tuned reload handlers: context switch, idle and loaded pipe \
       latency, user wall-clock" e3;
    spec "E6" "Idle-task zombie PTE reclaim" "sec 7"
      "evict ratio, live/zombie occupancy and hit rate with the idle \
       scavenger on and off" e6;
    spec "E7" "Idle-task page clearing designs" "sec 9"
      "the four clearing designs (cached/uncached x list/no-list) on \
       the compile workload" e7;
    spec "E8" "Cache pollution from cached page tables" "sec 8"
      "ablation: cache-inhibited page-table walks vs the pollution they \
       avoid" e8;
    spec "E10" "Range-flush cutoff sweep" "sec 7"
      "mmap+munmap latency vs flush cutoff: the 20-page knee" e10;
    spec "E11" "Per-process frame-buffer BAT" "sec 5.1"
      "the paper's proposal implemented: display-server request latency \
       with the fb in a BAT" e11;
    spec "E12" "Locking the cache in idle" "sec 10.1"
      "future work: idle-task cache lock vs pollution from reclaim \
       scans and cached clearing" e12;
    spec "E13" "Cache preloads on context switch" "sec 10.2"
      "future work: preload hints on switch (a mildly negative result)" e13;
    spec "E14" "Aggregate multiuser wall-clock" "sec 1"
      "the headline: unoptimized vs optimized busy time, keystroke and \
       utility latency" e14;
    spec "E15" "Hash table sizing sweep" "sec 7"
      "htab size 2k..32k PTEs: occupancy, hit rate, evictions, busy \
       time" e15;
    spec "E16" "htab replacement policy vs idle reclaim" "sec 7"
      "ablation: arbitrary / second-chance / zombie-aware eviction \
       against the idle-task fix" e16;
    spec "E17" "Server tail latency: fork/exec per request" "server"
      "p50/p99/p999 completion latency per MMU config when every \
       request forks, execs and exits" e17;
    spec "E18" "Server tail latency: pre-forked pool" "server"
      "tail latency per MMU config with recycled pool workers \
       (MaxRequestsPerChild churn)" e18;
    spec "E19" "Server tail latency: shared-mm threads" "server"
      "tail latency per MMU config when workers share one address \
       space" e19;
    spec "EX1" "LmBench across all modeled processors" "extra"
      "601-80 through 750-233 under the optimized kernel" ex1;
    spec "EX2" "Parallel make: I/O overlap vs -jN" "extra"
      "wall/busy/idle and context switches for -j1..8" ex2;
    spec "EX4" "lat_ctx working-set sweep (TLB reach)" "extra"
      "context-switch cost vs per-process footprint on 128- and \
       256-entry TLBs" ex4;
    spec "EX5" "The optimization ladder, step by step" "sec 10"
      "the paper's methodology: each optimization applied on top of the \
       previous ones" ex5;
    spec "EX6" "Stability across runs (seeds)" "sec 4"
      "key conclusions re-measured across five seeds, min/mean/max" ex6;
    spec "EX7" "Keystroke response under a background compile" "extra"
      "editor wake-to-done latency while a compile grinds, unoptimized \
       vs optimized" ex7 ]

(* Runnable by name but excluded from default sweeps and baselines. *)
let diagnostics =
  [ spec "D1" "fork/COW/exec flush stress (shadow diagnostic)" "diagnostic"
      "translation sequences a missed TLB invalidate corrupts; the \
       shadow-checker smoke workload" d1;
    spec "D2" "cross-CPU exec/shootdown stress (shadow diagnostic)"
      "diagnostic"
      "the two-CPU shared-mm sequence a skipped TLB shootdown corrupts; \
       the SMP shadow-checker smoke workload" d2 ]

(* Long-horizon runs: runnable by name, excluded from default sweeps and
   baselines — their request counts come from the process-wide
   --requests knob, so their tables are only comparable at a stated
   count. *)
let long_horizon =
  [ spec "E20" "Long-horizon server run across the context-counter wrap"
      "server"
      "fork/exec tail latency with the VSID counter pre-aged so the \
       20-bit wrap fires mid-run; the wrap-stress workload behind the \
       recorder's vsid-wrap detector" e20 ]

(* EX3, the paper's tuning method rerun, is runnable by name too; it
   stays out of default sweeps so the baselines keep 25 experiments. *)
let runnable =
  registry @ diagnostics @ long_horizon
  @ [ spec "EX3" "VSID multiplier tuning sweep" "sec 5.2"
        "the authors' histogram method over 11 candidate multipliers: \
         full PTEGs, evictions, htab use, hit rate" ex3 ]

(* Ids are the join key for baselines, CLI selection and results
   documents, and lookup is case-insensitive — a colliding id would
   silently shadow one experiment behind another (the drift the E17-E19
   renumbering above narrowly avoided by hand).  Refuse duplicates the
   moment the registry loads instead. *)
let check_unique specs =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let key = String.uppercase_ascii s.id in
      match Hashtbl.find_opt seen key with
      | Some other ->
          invalid_arg
            (Printf.sprintf
               "Experiments: duplicate experiment id %S (case-insensitively \
                collides with %S); ids must be unique"
               s.id other)
      | None -> Hashtbl.add seen key s.id)
    specs

let () = check_unique runnable

let find id =
  List.find_opt
    (fun s -> String.uppercase_ascii s.id = String.uppercase_ascii id)
    runnable

let all = List.map (fun s -> (s.id, s.run)) registry

(* ----------------------------------------------------------- JSON I/O *)

let to_json ?id ?section ?what t =
  let opt k v rest =
    match v with Some v -> (k, Json.String v) :: rest | None -> rest
  in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    (opt "id" id
       (opt "section" section
          (opt "what" what
             [ ("title", Json.String t.title);
               ("header", strings t.header);
               ("rows", Json.List (List.map strings t.rows));
               ("notes", strings t.notes) ])))

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field k = Option.to_result ~none:("missing field " ^ k) (Json.member k j) in
  let strings k v =
    match Json.to_list_opt v with
    | None -> Error (k ^ " is not a list")
    | Some l ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
              match Json.to_string_opt x with
              | Some s -> conv (s :: acc) rest
              | None -> Error (k ^ " has a non-string element"))
        in
        conv [] l
  in
  let* title = field "title" in
  let* title =
    Option.to_result ~none:"title is not a string" (Json.to_string_opt title)
  in
  let* header = Result.bind (field "header") (strings "header") in
  let* rows_j = field "rows" in
  let* rows =
    match Json.to_list_opt rows_j with
    | None -> Error "rows is not a list"
    | Some l ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | r :: rest ->
              let* cells = strings "row" r in
              conv (cells :: acc) rest
        in
        conv [] l
  in
  let* notes =
    match Json.member "notes" j with
    | None -> Ok []
    | Some v -> strings "notes" v
  in
  Ok { title; header; rows; notes }
