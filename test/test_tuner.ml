(* The parallel policy auto-tuner: candidate enumeration, Pareto
   machinery, the supervised fan-out, and the jobs-independence
   guarantee (a parallel sweep is byte-identical to a serial one). *)

module Tuner = Mmu_tricks.Tuner
module Policy = Mmu_tricks.Policy
module Json = Mmu_tricks.Json
module Kpolicy = Kernel_sim.Policy

(* --- candidates ------------------------------------------------------ *)

let test_labels () =
  Alcotest.(check string) "label syntax" "a=1,b=x"
    (Tuner.label_of [ ("a", "1"); ("b", "x") ]);
  let c =
    Tuner.candidate_of_assignment ~base:Policy.paper_default
      [ ("vsid_multiplier", "64") ]
  in
  Alcotest.(check string) "candidate label" "vsid_multiplier=64"
    c.Tuner.c_label;
  Alcotest.(check int) "assignment applied" 64
    c.Tuner.c_policy.Kpolicy.vsid_multiplier;
  match
    Tuner.candidate_of_assignment ~base:Policy.paper_default
      [ ("warp_drive", "on") ]
  with
  | _ -> Alcotest.fail "unknown knob accepted"
  | exception Invalid_argument _ -> ()

let test_grid () =
  let axes =
    [ { Tuner.a_key = "vsid_multiplier"; a_values = [ "17"; "64" ] };
      { Tuner.a_key = "tlb_replacement"; a_values = [ "lru"; "fifo"; "random" ] } ]
  in
  let g = Tuner.grid ~base:Policy.paper_default axes in
  Alcotest.(check int) "cartesian product" 6 (List.length g);
  Alcotest.(check string) "lexicographic first"
    "vsid_multiplier=17,tlb_replacement=lru"
    (List.hd g).Tuner.c_label;
  Alcotest.(check string) "lexicographic last"
    "vsid_multiplier=64,tlb_replacement=random"
    (List.nth g 5).Tuner.c_label

(* --- Pareto machinery on hand-built evals ---------------------------- *)

let mk_eval label values =
  { Tuner.e_cand =
      { Tuner.c_label = label;
        c_assignment = [];
        c_policy = Policy.paper_default };
    e_metrics =
      [ ( "w",
          List.mapi
            (fun i v ->
              { Tuner.m_name = "m" ^ string_of_int i;
                m_value = v;
                m_unit = "u" })
            values ) ] }

let test_dominates () =
  let a = mk_eval "a" [ 1.0; 1.0 ]
  and b = mk_eval "b" [ 2.0; 2.0 ]
  and c = mk_eval "c" [ 0.5; 3.0 ] in
  Alcotest.(check bool) "strictly better dominates" true
    (Tuner.dominates a b);
  Alcotest.(check bool) "not the reverse" false (Tuner.dominates b a);
  Alcotest.(check bool) "trade-offs do not dominate" false
    (Tuner.dominates a c);
  Alcotest.(check bool) "either way" false (Tuner.dominates c a);
  Alcotest.(check bool) "no self-domination (needs strict better)" false
    (Tuner.dominates a (mk_eval "a'" [ 1.0; 1.0 ]))

let test_pareto_front () =
  let evals =
    [ mk_eval "good" [ 1.0; 1.0 ];
      mk_eval "bad" [ 2.0; 2.0 ];
      mk_eval "tradeoff" [ 0.5; 3.0 ] ]
  in
  let front = List.map (fun e -> e.Tuner.e_cand.Tuner.c_label)
      (Tuner.pareto evals)
  in
  Alcotest.(check (list string)) "dominated point drops, trade-off stays"
    [ "good"; "tradeoff" ] front

let test_score () =
  let base = mk_eval "base" [ 1.0; 1.0 ] in
  Alcotest.(check (float 1e-9)) "base scores 1.0" 1.0
    (Tuner.score ~base base);
  (* mean of (1+3)/(1+1) and (1+1)/(1+1) *)
  Alcotest.(check (float 1e-9)) "worse point scores above 1" 1.5
    (Tuner.score ~base (mk_eval "worse" [ 3.0; 1.0 ]));
  Alcotest.(check (float 1e-9)) "better point scores below 1" 0.75
    (Tuner.score ~base (mk_eval "better" [ 0.0; 1.0 ]))

(* --- supervised fan-out ---------------------------------------------- *)

let fan_tasks =
  List.map
    (fun i ->
      ( "task-" ^ string_of_int i,
        fun ?seed:(_ : int option) () -> Json.Int (i * i) ))
    [ 1; 2; 3; 4; 5 ]

let test_fan_out_serial_parallel_identical () =
  let serial = Tuner.fan_out ~jobs:1 fan_tasks in
  let parallel = Tuner.fan_out ~jobs:4 fan_tasks in
  Alcotest.(check int) "same length" (List.length serial)
    (List.length parallel);
  List.iter2
    (fun (id_s, r_s) (id_p, r_p) ->
      Alcotest.(check string) "input order preserved" id_s id_p;
      match (r_s, r_p) with
      | Ok a, Ok b ->
          Alcotest.(check string) (id_s ^ " payload identical")
            (Json.to_string a) (Json.to_string b)
      | _ -> Alcotest.fail (id_s ^ ": expected Ok payloads"))
    serial parallel;
  List.iteri
    (fun i (_, r) ->
      match r with
      | Ok (Json.Int n) ->
          Alcotest.(check int) "payload value" ((i + 1) * (i + 1)) n
      | _ -> Alcotest.fail "expected Int payload")
    serial

let test_fan_out_failure_isolated () =
  let tasks =
    [ ("fine", fun ?seed:(_ : int option) () -> Json.Int 7);
      ("boom", fun ?seed:(_ : int option) () -> failwith "kaboom");
      ("also-fine", fun ?seed:(_ : int option) () -> Json.Int 9) ]
  in
  match Tuner.fan_out ~jobs:2 tasks with
  | [ ("fine", Ok (Json.Int 7)); ("boom", Error _);
      ("also-fine", Ok (Json.Int 9)) ] ->
      ()
  | _ -> Alcotest.fail "crash did not stay isolated to its task"

(* --- tune end-to-end on synthetic workloads -------------------------- *)

(* A workload whose metrics are pure functions of the policy: fast,
   deterministic, and with a known optimum (vsid_multiplier = 64), so
   the grid + Pareto machinery is checked exactly. *)
let synth_workload =
  { Tuner.w_name = "synthetic";
    w_eval =
      (fun ~policy ~seed:_ ->
        [ { Tuner.m_name = "cost";
            m_value = float_of_int (abs (policy.Kpolicy.vsid_multiplier - 64));
            m_unit = "units" } ]) }

let synth_axes =
  [ { Tuner.a_key = "vsid_multiplier"; a_values = [ "17"; "64"; "897" ] } ]

let run_synth jobs =
  Tuner.tune ~jobs ~seed:7 ~workloads:[ synth_workload ] ~axes:synth_axes ()

let test_tune_finds_optimum () =
  let result = run_synth 2 in
  Alcotest.(check string) "winner is the known optimum"
    "vsid_multiplier=64" result.Tuner.r_winner.Tuner.e_cand.Tuner.c_label;
  Alcotest.(check bool) "winner is on the front" true
    (Tuner.on_front result "vsid_multiplier=64");
  Alcotest.(check bool) "dominated candidate is off the front" false
    (Tuner.on_front result "vsid_multiplier=17");
  Alcotest.(check bool) "base (897) is dominated too" false
    (Tuner.on_front result "paper_default");
  Alcotest.(check int) "no failures" 0 (List.length result.Tuner.r_failures)

let test_tune_doc_jobs_identical () =
  let doc jobs =
    Json.to_string
      (Tuner.doc ~seed:7 ~axes:synth_axes ~workloads:[ synth_workload ]
         (run_synth jobs))
  in
  Alcotest.(check string) "doc byte-identical at --jobs 1 and --jobs 4"
    (doc 1) (doc 4)

let test_tune_doc_shape () =
  let result = run_synth 2 in
  let doc =
    Tuner.doc ~seed:7 ~axes:synth_axes ~workloads:[ synth_workload ] result
  in
  let str k =
    Option.bind (Json.member k doc) Json.to_string_opt
  in
  Alcotest.(check (option string)) "schema" (Some Tuner.schema)
    (str "schema");
  Alcotest.(check (option string)) "winner" (Some "vsid_multiplier=64")
    (str "winner");
  match Json.member "candidates" doc with
  | Some (Json.List cands) ->
      (* base + 3 grid points, nothing else *)
      Alcotest.(check int) "base + grid candidates" 4 (List.length cands)
  | _ -> Alcotest.fail "doc has no candidates array"

let test_tune_drops_failing_candidate () =
  let treacherous =
    { Tuner.w_name = "treacherous";
      w_eval =
        (fun ~policy ~seed:_ ->
          if policy.Kpolicy.vsid_multiplier = 17 then
            failwith "cannot evaluate 17";
          [ { Tuner.m_name = "cost";
              m_value =
                float_of_int (abs (policy.Kpolicy.vsid_multiplier - 64));
              m_unit = "units" } ]) }
  in
  let result =
    Tuner.tune ~jobs:2 ~seed:7 ~workloads:[ treacherous ] ~axes:synth_axes ()
  in
  Alcotest.(check int) "failing candidate reported once" 1
    (List.length
       (List.filter
          (fun (id, _) -> id = "vsid_multiplier=17 @ treacherous")
          result.Tuner.r_failures));
  Alcotest.(check bool) "failing candidate not evaluated" false
    (List.exists
       (fun e -> e.Tuner.e_cand.Tuner.c_label = "vsid_multiplier=17")
       result.Tuner.r_evals);
  Alcotest.(check string) "winner still found" "vsid_multiplier=64"
    result.Tuner.r_winner.Tuner.e_cand.Tuner.c_label

(* The axes are the whole search space.  The cost here is minimized by
   the base's own values (multiplier 897, cutoff 20), and 897 is on no
   axis: nothing around the base is tried beyond the grid. *)
let test_tune_evaluates_exactly_the_grid () =
  let base_optimal =
    { Tuner.w_name = "base-optimal";
      w_eval =
        (fun ~policy ~seed:_ ->
          [ { Tuner.m_name = "cost";
              m_value =
                float_of_int
                  (abs (policy.Kpolicy.vsid_multiplier - 897)
                  + if policy.Kpolicy.flush_cutoff = Some 20 then 0 else 1);
              m_unit = "units" } ]) }
  in
  let axes =
    [ { Tuner.a_key = "vsid_multiplier"; a_values = [ "17"; "64" ] };
      { Tuner.a_key = "flush_cutoff"; a_values = [ "4"; "20"; "none" ] } ]
  in
  let result =
    Tuner.tune ~jobs:2 ~seed:7 ~workloads:[ base_optimal ] ~axes ()
  in
  Alcotest.(check (list string)) "the base, then the 6 grid points"
    ("paper_default"
    :: List.map
         (fun c -> c.Tuner.c_label)
         (Tuner.grid ~base:Policy.paper_default axes))
    (List.map (fun e -> e.Tuner.e_cand.Tuner.c_label) result.Tuner.r_evals);
  Alcotest.(check string) "the base wins" "paper_default"
    result.Tuner.r_winner.Tuner.e_cand.Tuner.c_label

(* A grid point whose policy is the base's ([vsid_multiplier=897] is
   [paper_default] itself) runs once, under the base's label, and reads
   the same metrics under its own.  Serial, so the calls are counted in
   this process. *)
let test_tune_runs_each_policy_once () =
  let calls = ref [] in
  let counted =
    { Tuner.w_name = "counted";
      w_eval =
        (fun ~policy ~seed:_ ->
          calls := policy.Kpolicy.vsid_multiplier :: !calls;
          [ { Tuner.m_name = "cost";
              m_value = float_of_int policy.Kpolicy.vsid_multiplier;
              m_unit = "units" } ]) }
  in
  let result =
    Tuner.tune ~jobs:1 ~seed:7 ~workloads:[ counted ]
      ~axes:[ { Tuner.a_key = "vsid_multiplier"; a_values = [ "17"; "897" ] } ]
      ()
  in
  Alcotest.(check (list int)) "the base's policy runs once" [ 897; 17 ]
    (List.rev !calls);
  let metrics label =
    match
      List.find_opt
        (fun e -> e.Tuner.e_cand.Tuner.c_label = label)
        result.Tuner.r_evals
    with
    | Some e -> e.Tuner.e_metrics
    | None -> Alcotest.failf "%s was not evaluated" label
  in
  Alcotest.(check bool) "both labels carry the base's metrics" true
    (metrics "paper_default" = metrics "vsid_multiplier=897");
  Alcotest.(check int) "three candidates" 3 (List.length result.Tuner.r_evals)

let suite =
  [ Alcotest.test_case "labels and assignments" `Quick test_labels;
    Alcotest.test_case "grid enumeration" `Quick test_grid;
    Alcotest.test_case "domination" `Quick test_dominates;
    Alcotest.test_case "pareto front" `Quick test_pareto_front;
    Alcotest.test_case "scalar score" `Quick test_score;
    Alcotest.test_case "fan_out serial = parallel" `Quick
      test_fan_out_serial_parallel_identical;
    Alcotest.test_case "fan_out isolates crashes" `Quick
      test_fan_out_failure_isolated;
    Alcotest.test_case "tune finds the optimum" `Quick
      test_tune_finds_optimum;
    Alcotest.test_case "tune doc jobs-identical" `Quick
      test_tune_doc_jobs_identical;
    Alcotest.test_case "tune doc shape" `Quick test_tune_doc_shape;
    Alcotest.test_case "tune drops failing candidates" `Quick
      test_tune_drops_failing_candidate;
    Alcotest.test_case "tune evaluates exactly the grid" `Quick
      test_tune_evaluates_exactly_the_grid;
    Alcotest.test_case "tune runs each policy once" `Quick
      test_tune_runs_each_policy_once ]
