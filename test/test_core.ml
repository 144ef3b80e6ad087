(* The mmu_tricks layer: config presets, metrics, report, os_model. *)
open Ppc
module Config = Mmu_tricks.Config
module Metrics = Mmu_tricks.Metrics
module Report = Mmu_tricks.Report
module System = Mmu_tricks.System
module Os_model = Mmu_tricks.Os_model
module Policy = Kernel_sim.Policy
module Kernel = Kernel_sim.Kernel

let test_presets_distinct () =
  Alcotest.(check bool) "baseline has no bat" false
    Config.baseline.Policy.bat_kernel_mapping;
  Alcotest.(check bool) "optimized has bat" true
    Config.optimized.Policy.bat_kernel_mapping;
  Alcotest.(check bool) "baseline+bat differs only in bat" true
    (Config.baseline_with_bat.Policy.bat_kernel_mapping
    && Config.baseline_with_bat.Policy.fast_reload
       = Config.baseline.Policy.fast_reload);
  Alcotest.(check bool) "no-htab preset" false
    Config.optimized_no_htab.Policy.use_htab;
  Alcotest.(check bool) "precise preset has no cutoff" true
    (Config.optimized_precise_flush.Policy.flush_cutoff = None)

let test_find_by_name () =
  List.iter
    (fun (name, policy) ->
      match Config.find name with
      | Some p -> Alcotest.(check bool) ("found " ^ name) true (p = policy)
      | None -> Alcotest.fail ("missing preset " ^ name))
    Config.all_named;
  Alcotest.(check bool) "unknown is None" true (Config.find "nope" = None)

let test_describe () =
  let s = Policy.describe Config.optimized in
  Alcotest.(check bool) "mentions bat" true
    (String.length s > 0
    && String.index_opt s 'b' <> None)

let test_metrics () =
  let p = Perf.create () in
  p.Perf.itlb_lookups <- 60;
  p.Perf.dtlb_lookups <- 40;
  p.Perf.itlb_misses <- 3;
  p.Perf.dtlb_misses <- 7;
  Alcotest.(check (float 1e-9)) "tlb miss rate" 0.1 (Metrics.tlb_miss_rate p);
  p.Perf.htab_searches <- 50;
  p.Perf.htab_hits <- 45;
  Alcotest.(check (float 1e-9)) "htab hit rate" 0.9 (Metrics.htab_hit_rate p);
  p.Perf.htab_reloads <- 10;
  p.Perf.htab_evicts <- 9;
  Alcotest.(check (float 1e-9)) "evict ratio" 0.9 (Metrics.evict_ratio p);
  p.Perf.cycles <- 1330;
  Alcotest.(check (float 1e-9)) "wall us" 10.0
    (Metrics.wall_us ~machine:Machine.ppc604_133 p);
  Alcotest.(check (float 1e-9)) "pct change" (-50.0)
    (Metrics.pct_change ~from_v:10.0 ~to_v:5.0);
  Alcotest.(check (float 1e-9)) "speedup" 80.0
    (Metrics.speedup ~from_v:3240.0 ~to_v:40.5);
  Alcotest.(check (float 1e-9)) "occupancy pct" 75.0
    (Metrics.occupancy_pct ~occupancy:12288 ~capacity:16384)

let test_metrics_zero_denominators () =
  (* every ratio over a freshly-created (all-zero) Perf.t is 0.0 — a
     run that never touched a subsystem reports zero, not NaN *)
  let p = Perf.create () in
  Alcotest.(check (float 1e-9)) "no lookups" 0.0 (Metrics.tlb_miss_rate p);
  Alcotest.(check (float 1e-9)) "no searches" 0.0 (Metrics.htab_hit_rate p);
  Alcotest.(check (float 1e-9)) "no reloads" 0.0 (Metrics.evict_ratio p);
  Alcotest.(check (float 1e-9)) "no dcache accesses" 0.0
    (Metrics.dcache_miss_rate p);
  Alcotest.(check (float 1e-9)) "no icache accesses" 0.0
    (Metrics.icache_miss_rate p);
  Alcotest.(check (float 1e-9)) "no cycles" 0.0 (Metrics.idle_fraction p);
  Alcotest.(check (float 1e-9)) "zero-capacity htab" 0.0
    (Metrics.occupancy_pct ~occupancy:0 ~capacity:0);
  Alcotest.(check (float 1e-9)) "pct change from zero" 0.0
    (Metrics.pct_change ~from_v:0.0 ~to_v:5.0);
  Alcotest.(check bool) "speedup against zero is infinite" true
    (Metrics.speedup ~from_v:1.0 ~to_v:0.0 = infinity)

let test_empty_hist_degenerate () =
  let h = Hist.create () in
  Alcotest.(check int) "empty percentile is 0" 0 (Hist.percentile h 0.99);
  Alcotest.(check (float 1e-9)) "empty interpolated percentile is 0" 0.0
    (Hist.percentile_interpolated h 0.99);
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check int) "empty max" 0 (Hist.max_value h)

let test_report_formats () =
  Alcotest.(check string) "int separators" "219,000,000"
    (Report.fmt_int 219_000_000);
  Alcotest.(check string) "small int" "41" (Report.fmt_int 41);
  Alcotest.(check string) "ratio" "80.3x" (Report.fmt_ratio 80.3);
  Alcotest.(check string) "pct" "12.5%" (Report.fmt_pct 12.5);
  Alcotest.(check string) "us large" "3240" (Report.fmt_us 3240.0);
  Alcotest.(check string) "us small" "2.00" (Report.fmt_us 2.0)

let test_system_snapshot () =
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Config.optimized ()
  in
  let s = System.snapshot k in
  Alcotest.(check int) "tlb capacity 256" 256 s.System.tlb_capacity;
  Alcotest.(check int) "htab capacity" 16384 s.System.htab_capacity;
  Alcotest.(check int) "boot leaves TLBs empty" 0 s.System.tlb_valid;
  let t = Kernel.spawn k () in
  Kernel.switch_to k t;
  Kernel.touch k Mmu.Store (Kernel_sim.Mm.user_text_base + (16 lsl 12));
  let s' = System.snapshot k in
  Alcotest.(check bool) "activity fills structures" true
    (s'.System.tlb_valid > 0);
  Alcotest.(check bool) "histogram sums to PTEG count" true
    (Array.fold_left ( + ) 0 s'.System.htab_histogram = 2048)

let test_snapshot_no_htab () =
  let k =
    Kernel.boot ~machine:Machine.ppc603_133
      ~policy:Config.optimized_no_htab ()
  in
  let s = System.snapshot k in
  Alcotest.(check int) "no htab capacity" 0 s.System.htab_capacity;
  Alcotest.(check int) "no valid entries" 0 s.System.htab_valid

let test_all_presets_boot_and_run () =
  List.iter
    (fun (name, policy) ->
      let k =
        Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed:1 ()
      in
      let t = Kernel.spawn k () in
      Kernel.switch_to k t;
      Kernel.user_run k ~instrs:2000;
      Kernel.sys_null k;
      let ea = Kernel.sys_mmap k ~pages:30 ~writable:true in
      Kernel.touch k Mmu.Store ea;
      Kernel.sys_munmap k ~ea ~pages:30;
      Kernel.idle_for k ~cycles:5_000;
      Kernel.sys_exit k;
      Alcotest.(check bool) (name ^ " produced cycles") true
        (Kernel.cycles k > 0))
    Config.all_named

let test_idle_fraction_metric () =
  let p = Perf.create () in
  p.Perf.cycles <- 200;
  p.Perf.idle_cycles <- 50;
  Alcotest.(check (float 1e-9)) "idle fraction" 0.25
    (Metrics.idle_fraction p)

module Experiments = Mmu_tricks.Experiments

let test_experiments_registry () =
  let names = List.map fst Experiments.all in
  Alcotest.(check int) "twenty-five experiments" 25 (List.length names);
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("has " ^ expected) true
        (List.mem expected names))
    [ "T1"; "T2"; "T3"; "E1"; "E2"; "E3"; "E6"; "E7"; "E8"; "E10"; "E11";
      "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18"; "E19"; "EX1"; "EX2";
      "EX4"; "EX5"; "EX6"; "EX7" ]

(* the registration-time duplicate-id guard (the E15-E17 drafting slip) *)

let fake_spec id : Experiments.spec =
  { Experiments.id;
    name = "fake " ^ id;
    section = "test";
    what = "fake";
    run =
      (fun ?seed:_ () ->
        { Experiments.title = "t"; header = []; rows = []; notes = [] }) }

let expect_duplicate name specs =
  match Experiments.check_unique specs with
  | () -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (name ^ " names the duplicate") true
        (contains msg "duplicate experiment id")

let test_duplicate_ids_rejected () =
  expect_duplicate "exact duplicate"
    [ fake_spec "E1"; fake_spec "E2"; fake_spec "E1" ];
  (* find is case-insensitive, so the guard must be too *)
  expect_duplicate "case-insensitive duplicate"
    [ fake_spec "e17"; fake_spec "E17" ]

let test_registry_ids_unique () =
  (* the live registry passes the guard it already ran at module load *)
  Experiments.check_unique
    (Experiments.registry @ Experiments.diagnostics);
  Alcotest.(check pass) "registry + diagnostics unique" () ()

let test_csv_export () =
  let t =
    { Experiments.title = "t";
      header = [ "a"; "b" ];
      rows = [ [ "1"; "x,y" ]; [ "2"; "quote\"d" ] ];
      notes = [] }
  in
  let csv = Experiments.to_csv t in
  Alcotest.(check string) "csv escaping"
    "a,b\n1,\"x,y\"\n2,\"quote\"\"d\"\n" csv

let test_experiment_structure () =
  (* run one of the cheaper experiments end to end *)
  let t = Experiments.e13 ~seed:1 () in
  Alcotest.(check int) "three rows" 3 (List.length t.Experiments.rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "row width matches header"
        (List.length t.Experiments.header)
        (List.length row))
    t.Experiments.rows;
  Alcotest.(check bool) "has a title" true
    (String.length t.Experiments.title > 0)

let test_os_model_paper_rows () =
  List.iter
    (fun p ->
      let r = Os_model.paper_row p in
      Alcotest.(check bool) "positive numbers" true
        (r.Os_model.null_us > 0.0 && r.Os_model.pipe_bw_mbs > 0.0))
    Os_model.all;
  Alcotest.(check (float 1e-9)) "linux opt null" 2.0
    (Os_model.paper_row Os_model.linux_opt).Os_model.null_us

let test_os_model_measures () =
  (* one cheap personality end-to-end; the full table runs in the bench *)
  let r = Os_model.measure_row ~machine:Os_model.table3_machine
      Os_model.linux_opt ()
  in
  Alcotest.(check bool) "null in band" true
    (r.Os_model.null_us > 0.5 && r.Os_model.null_us < 10.0);
  Alcotest.(check bool) "bw in band" true
    (r.Os_model.pipe_bw_mbs > 10.0 && r.Os_model.pipe_bw_mbs < 200.0)

let test_os_model_mach_slower () =
  let opt =
    Os_model.measure_row ~machine:Os_model.table3_machine Os_model.linux_opt
      ()
  in
  let mk =
    Os_model.measure_row ~machine:Os_model.table3_machine Os_model.mklinux ()
  in
  Alcotest.(check bool) "mklinux much slower on null" true
    (mk.Os_model.null_us > 4.0 *. opt.Os_model.null_us);
  Alcotest.(check bool) "mklinux much slower on ctxsw" true
    (mk.Os_model.ctxsw_us > 4.0 *. opt.Os_model.ctxsw_us);
  Alcotest.(check bool) "mklinux worse pipe bw" true
    (mk.Os_model.pipe_bw_mbs < opt.Os_model.pipe_bw_mbs /. 2.0)

let suite =
  [ Alcotest.test_case "presets distinct" `Quick test_presets_distinct;
    Alcotest.test_case "find by name" `Quick test_find_by_name;
    Alcotest.test_case "describe" `Quick test_describe;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "metrics zero denominators" `Quick
      test_metrics_zero_denominators;
    Alcotest.test_case "empty hist degenerate" `Quick
      test_empty_hist_degenerate;
    Alcotest.test_case "report formats" `Quick test_report_formats;
    Alcotest.test_case "system snapshot" `Quick test_system_snapshot;
    Alcotest.test_case "all presets boot and run" `Quick
      test_all_presets_boot_and_run;
    Alcotest.test_case "idle fraction metric" `Quick
      test_idle_fraction_metric;
    Alcotest.test_case "snapshot without htab" `Quick test_snapshot_no_htab;
    Alcotest.test_case "experiments registry" `Quick
      test_experiments_registry;
    Alcotest.test_case "experiment structure (E13)" `Slow
      test_experiment_structure;
    Alcotest.test_case "duplicate experiment ids rejected" `Quick
      test_duplicate_ids_rejected;
    Alcotest.test_case "registry ids unique" `Quick test_registry_ids_unique;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "os model paper rows" `Quick test_os_model_paper_rows;
    Alcotest.test_case "os model measures" `Slow test_os_model_measures;
    Alcotest.test_case "os model mach slower" `Slow test_os_model_mach_slower ]
