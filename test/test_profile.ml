(* The attribution profiler: profiling is free (counters and experiment
   tables byte-identical), accounts and exports are exact on hand-fed
   charges, and `explain` ranks a perturbed counter first. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Experiments = Mmu_tricks.Experiments
module Profile_export = Mmu_tricks.Profile_export
module Explain = Mmu_tricks.Explain
module Json = Mmu_tricks.Json
module Runner = Mmu_tricks.Runner

(* Same varied workload shape as the shadow tests: processes, COW
   forks, exec, mmap/munmap — plenty of misses to attribute. *)
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
  for _ = 1 to 2 do
    let child = Kernel.sys_fork k in
    store_all ();
    Kernel.switch_to k child;
    Kernel.sys_exec k ~text_pages ~data_pages ~stack_pages;
    Kernel.user_run k ~instrs:500;
    store_all ();
    Kernel.sys_exit k;
    Kernel.switch_to k parent
  done

let perf_signature p =
  ( p.Perf.cycles,
    p.Perf.mem_refs,
    Perf.tlb_misses p,
    p.Perf.htab_searches,
    Perf.cache_misses p,
    p.Perf.instructions )

(* --- profiling is free ------------------------------------------------- *)

let test_profiling_is_free () =
  List.iter
    (fun (name, policy) ->
      let run profiled =
        let k =
          Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed:7 ()
        in
        if profiled then begin
          Profile.enable (Kernel.profile k);
          Memsys.arm_timeline (Kernel.memsys k) ~every:10_000
        end;
        kernel_workload k;
        perf_signature (Kernel.perf k)
      in
      Alcotest.(check bool)
        (name ^ ": counters identical with profiling on")
        true
        (run false = run true))
    [ ("optimized", Policy.optimized); ("baseline", Policy.baseline) ]

let test_experiment_table_identical_when_armed () =
  (* the same guarantee end to end: an experiment's table is unchanged
     when the boot configuration arms profiling *)
  let d1 = Option.get (Experiments.find "D1") in
  let plain = d1.Experiments.run ~seed:42 () in
  let profiled, profilers =
    Runner.armed
      { Boot.plain with Boot.profile = true; timeline = 50_000 }
      (fun () ->
        let t = d1.Experiments.run ~seed:42 () in
        (t, List.map Kernel.profile (Kernel.drain_smp_registered ())))
  in
  Alcotest.(check bool) "table identical" true (plain = profiled);
  Alcotest.(check bool) "profilers were registered and armed" true
    (profilers <> []
    && List.exists (fun pr -> Profile.total_misses pr > 0) profilers)

(* --- accounting on hand-fed charges ------------------------------------ *)

(* A bare profiler over its own clock and (unarmed) timeline. *)
let mk_profile () =
  Profile.create ~timeline:(Recorder.create ~perf:(Perf.create ()))

let hand_charged () =
  let pr = mk_profile () in
  Profile.enable pr;
  Profile.charge_miss pr ~pid:3 ~seg:2 ~page:0x2000 ~kind:Profile.Dtlb
    ~cost:412170;
  Profile.charge_miss pr ~pid:1 ~seg:0 ~page:0x1000 ~kind:Profile.Itlb
    ~cost:60;
  Profile.charge_miss pr ~pid:1 ~seg:0 ~page:0x1000 ~kind:Profile.Itlb
    ~cost:40;
  Profile.charge_miss pr ~pid:1 ~seg:0 ~page:0x3000 ~kind:Profile.Htab_miss
    ~cost:55;
  pr

let test_attribution_rows () =
  let pr = hand_charged () in
  Alcotest.(check int) "total misses" 4 (Profile.total_misses pr);
  Alcotest.(check int) "total cost" (412170 + 60 + 40 + 55)
    (Profile.total_cost pr);
  match Profile.attribution pr with
  | [ a; b; c ] ->
      Alcotest.(check bool) "itlb account first" true
        (a.Profile.r_pid = 1 && a.Profile.r_kind = Profile.Itlb
        && a.Profile.r_count = 2 && a.Profile.r_cost = 100);
      Alcotest.(check bool) "htab account second" true
        (b.Profile.r_pid = 1 && b.Profile.r_kind = Profile.Htab_miss);
      Alcotest.(check bool) "dtlb account last" true
        (c.Profile.r_pid = 3 && c.Profile.r_seg = 2
        && c.Profile.r_cost = 412170)
  | l ->
      Alcotest.fail (Printf.sprintf "expected 3 accounts, got %d"
                       (List.length l))

let test_hot_pages () =
  let pr = hand_charged () in
  Alcotest.(check (list (triple int int int)))
    "itlb hot pages"
    [ (0x1000, 2, 100) ]
    (Profile.hot_pages pr Profile.Itlb ~top:5);
  Alcotest.(check (list (triple int int int)))
    "dtlb hot pages"
    [ (0x2000, 1, 412170) ]
    (Profile.hot_pages pr Profile.Dtlb ~top:5)

let test_folded_golden () =
  Alcotest.(check string) "folded stacks"
    "pid_1;seg_0x0;itlb 100\n\
     pid_1;seg_0x0;htab 55\n\
     pid_3;seg_0x2;dtlb 412170\n"
    (Profile_export.folded [ hand_charged () ])

let test_census () =
  let pr = mk_profile () in
  Profile.enable pr;
  Profile.set_tlb_capacity pr 256;
  Profile.note_tlb_census pr ~kernel:2 ~occupied:8;
  Profile.note_tlb_census pr ~kernel:6 ~occupied:8;
  Profile.note_tlb_census pr ~kernel:4 ~occupied:16;
  let c = Profile.census pr in
  Alcotest.(check int) "samples" 3 c.Profile.n_samples;
  Alcotest.(check int) "high water" 6 c.Profile.kernel_high_water;
  Alcotest.(check int) "kernel now" 4 c.Profile.kernel_now;
  Alcotest.(check int) "occupied now" 16 c.Profile.occupied_now;
  Alcotest.(check int) "capacity" 256 c.Profile.slot_capacity;
  (* (25 + 75 + 25) / 3 *)
  Alcotest.(check (float 1e-9)) "avg share" (125.0 /. 3.0)
    c.Profile.avg_share_pct

let test_htab_sampling () =
  (* a profiled kernel run records occupancy samples and can snapshot
     the htab on demand *)
  let k =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.baseline ~seed:7 ()
  in
  let pr = Kernel.profile k in
  Profile.enable pr;
  Memsys.arm_timeline (Kernel.memsys k) ~every:5_000;
  kernel_workload k;
  Alcotest.(check bool) "periodic samples recorded" true
    (Profile.samples pr <> []);
  match Profile.snapshot_htab pr with
  | None -> Alcotest.fail "baseline policy machine has an htab"
  | Some s ->
      Alcotest.(check bool) "valid within capacity" true
        (s.Profile.h_valid >= 0 && s.Profile.h_valid <= s.Profile.h_capacity);
      Alcotest.(check int) "chain histogram sums to PTEG count"
        (s.Profile.h_capacity / 8)
        (Array.fold_left ( + ) 0 s.Profile.h_chains)

(* --- percentile interpolation ------------------------------------------ *)

let test_percentile_interpolated () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty" 0.0
    (Hist.percentile_interpolated h 0.5);
  List.iter (Hist.observe h) [ 1; 2; 3; 4 ];
  (* p50: rank 2 lands in bucket [2..3] as its first of two entries *)
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5
    (Hist.percentile_interpolated h 0.5);
  Alcotest.(check (float 1e-9)) "p100 is the true max" 4.0
    (Hist.percentile_interpolated h 1.0);
  Alcotest.(check bool) "old percentile unchanged" true
    (Hist.percentile h 0.5 = 3)

(* --- explain ----------------------------------------------------------- *)

let table header rows =
  { Experiments.title = "t"; header; rows; notes = [] }

let test_explain_ranks_perturbed_counter_first () =
  let a =
    table [ "metric"; "value" ]
      [ [ "TLB misses"; "61,534" ]; [ "htab misses"; "21,266" ];
        [ "busy (ms)"; "551" ] ]
  in
  let b =
    table [ "metric"; "value" ]
      [ [ "TLB misses"; "91,534" ]; [ "htab misses"; "21,270" ];
        [ "busy (ms)"; "551" ] ]
  in
  let ranked = Explain.rank (Explain.diff_tables ~id:"E1" ~a ~b) in
  match ranked with
  | first :: rest ->
      Alcotest.(check string) "perturbed counter first" "TLB misses"
        first.Explain.x_row;
      Alcotest.(check (float 1e-6)) "relative deviation"
        (30000.0 /. 91534.0) first.Explain.x_rel;
      Alcotest.(check int) "only the two moved tokens" 1 (List.length rest);
      Alcotest.(check bool) "describe names the move" true
        (let s = Explain.describe first in
         String.length s > 0
         && Explain.describe first
            = "E1: TLB misses [value]: 61534 -> 91534 (+32.8%)")
  | [] -> Alcotest.fail "no deltas found"

let test_explain_attribution_join () =
  let doc =
    Json.Obj
      [ ( "experiments",
          Json.List
            [ Json.Obj
                [ ("id", Json.String "E1");
                  ( "observability",
                    Json.Obj
                      [ ( "profile",
                          Json.Obj
                            [ ( "attribution",
                                Json.List
                                  [ Json.Obj
                                      [ ("pid", Json.Int 2);
                                        ("segment", Json.Int 0);
                                        ("kind", Json.String "dtlb");
                                        ("count", Json.Int 10);
                                        ("cost", Json.Int 999) ];
                                    Json.Obj
                                      [ ("pid", Json.Int 7);
                                        ("segment", Json.Int 12);
                                        ("kind", Json.String "itlb");
                                        ("count", Json.Int 90);
                                        ("cost", Json.Int 12345) ] ] ) ] )
                      ] ) ] ] ) ]
  in
  Alcotest.(check (list string))
    "heaviest account first, hex segment"
    [ "pid 7 seg 0xC itlb: 90 misses, 12345 cycles";
      "pid 2 seg 0x0 dtlb: 10 misses, 999 cycles" ]
    (Explain.attribution_lines doc ~id:"E1");
  Alcotest.(check (list string)) "unknown id yields nothing" []
    (Explain.attribution_lines doc ~id:"E2")

(* --- boot configuration and kernel registry ---------------------------- *)

let test_boot_config_registry () =
  let boot () =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:7
      ()
  in
  let k, drained, again =
    Runner.armed
      { Boot.plain with Boot.profile = true; timeline = 123 }
      (fun () ->
        let k = boot () in
        let drained = Kernel.drain_smp_registered () in
        (k, drained, Kernel.drain_smp_registered ()))
  in
  let pr = Kernel.profile k in
  Alcotest.(check bool) "armed boot enables" true (Profile.enabled pr);
  Alcotest.(check int) "armed boot samples at the configured cadence" 123
    (Recorder.every (Memsys.timeline (Kernel.memsys k)));
  Alcotest.(check bool) "armed boot collected" true
    (List.length drained = 1 && List.hd drained == k);
  Alcotest.(check int) "one drain empties the registry" 0 (List.length again);
  Alcotest.(check bool) "disarmed boot is plain" false
    (Profile.enabled (Kernel.profile (boot ())));
  Alcotest.(check int) "disarmed boot not registered" 0
    (List.length (Kernel.drain_smp_registered ()))

let suite =
  [ Alcotest.test_case "profiling is free (kernel)" `Quick
      test_profiling_is_free;
    Alcotest.test_case "experiment table identical when armed" `Quick
      test_experiment_table_identical_when_armed;
    Alcotest.test_case "attribution rows" `Quick test_attribution_rows;
    Alcotest.test_case "hot pages" `Quick test_hot_pages;
    Alcotest.test_case "folded stacks golden" `Quick test_folded_golden;
    Alcotest.test_case "TLB census" `Quick test_census;
    Alcotest.test_case "htab occupancy sampling" `Quick test_htab_sampling;
    Alcotest.test_case "percentile interpolation" `Quick
      test_percentile_interpolated;
    Alcotest.test_case "explain ranks perturbation first" `Quick
      test_explain_ranks_perturbed_counter_first;
    Alcotest.test_case "explain attribution join" `Quick
      test_explain_attribution_join;
    Alcotest.test_case "boot-defaults registry" `Quick
      test_boot_config_registry ]
