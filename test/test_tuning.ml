(* The §5.2 tuning method: E2's per-multiplier measurement and EX3's
   sweep over it. *)
module Experiments = Mmu_tricks.Experiments

(* small, fast configuration for tests *)
let score m = Experiments.vsid_score ~procs:8 ~pages:128 ~seed:3 m

let sweep candidates =
  Experiments.vsid_sweep ~procs:8 ~pages:128 ~seed:3 candidates

let multipliers t =
  List.map (fun row -> int_of_string (List.hd row)) t.Experiments.rows

let test_naive_has_hot_spots () =
  let s = score 1 in
  Alcotest.(check bool) "multiplier 1 leaves hot spots" true
    (s.Experiments.full_ptegs > 0);
  Alcotest.(check int) "reports its multiplier" 1 s.Experiments.multiplier

let test_tuned_is_clean () =
  let s = score Kernel_sim.Vsid_alloc.scatter_multiplier in
  Alcotest.(check int) "897 has no hot spots" 0 s.Experiments.full_ptegs;
  Alcotest.(check int) "and no evictions" 0 s.Experiments.evictions

let test_sweep_ranks_tuned_first () =
  match multipliers (sweep [ 1; 897 ]) with
  | best :: _ -> Alcotest.(check int) "897 ranks first" 897 best
  | [] -> Alcotest.fail "expected scores"

let test_sweep_preserves_candidates () =
  let candidates = [ 1; 16; 897 ] in
  Alcotest.(check (list int)) "same multipliers, reordered"
    (List.sort compare candidates)
    (List.sort compare (multipliers (sweep candidates)))

let test_table_rendering () =
  let t = sweep [ 1; 897 ] in
  Alcotest.(check int) "two rows" 2 (List.length t.Experiments.rows);
  Alcotest.(check int) "five columns" 5 (List.length t.Experiments.header)

let test_ex3_runs_by_name_only () =
  Alcotest.(check bool) "find EX3" true
    (match Experiments.find "EX3" with
    | Some s -> s.Experiments.id = "EX3"
    | None -> false);
  Alcotest.(check bool) "EX3 is not in the registry" false
    (List.exists (fun s -> s.Experiments.id = "EX3") Experiments.registry)

let suite =
  [ Alcotest.test_case "naive multiplier has hot spots" `Quick
      test_naive_has_hot_spots;
    Alcotest.test_case "tuned multiplier is clean" `Quick test_tuned_is_clean;
    Alcotest.test_case "sweep ranks tuned first" `Quick
      test_sweep_ranks_tuned_first;
    Alcotest.test_case "sweep preserves candidates" `Quick
      test_sweep_preserves_candidates;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "EX3 runs by name only" `Quick
      test_ex3_runs_by_name_only ]
