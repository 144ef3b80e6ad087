open Ppc
open Cli
open Cmdliner

(* Each gate prints its table and verdict and returns whether it passed;
   [Error] is kept for a document it cannot use. *)

let check_baseline baseline_file cpus jobs timeout retries tolerance shadow =
  match Baseline.load_with_json baseline_file with
  | Error msg -> Error (`Msg msg)
  | Ok (doc, baseline_json) ->
      let seed = doc.Baseline.d_seed in
      let known, unknown =
        List.partition
          (fun (id, _) -> Experiments.find id <> None)
          doc.Baseline.d_entries
      in
      Printf.printf "checking %d experiments against %s (seed %d, %d jobs%s)\n\n"
        (List.length known) baseline_file seed jobs
        (if shadow then ", shadow-checked" else "");
      flush stdout;
      let rc =
        run_experiments
          { Boot.plain with Boot.cpus; shadow }
          ~collect:(fun _ kernels ->
            if shadow then Some (Json.Obj [ ("shadow", shadow_json kernels) ])
            else None)
          ~jobs ~seed ~timeout ~retries (List.map fst known)
      in
      let results = List.map (fun (id, o, _) -> (id, o)) rc in
      let verdicts =
        List.map (fun (_, _, payload) -> shadow_verdict payload) rc
      in
      let shadow_divergences =
        List.fold_left (fun a (_, n, _) -> a + n) 0 verdicts
      in
      if shadow then begin
        Printf.printf "shadow: %d translations cross-checked, %d divergence(s)\n\n"
          (List.fold_left (fun a (c, _, _) -> a + c) 0 verdicts)
          shadow_divergences;
        List.iter (fun (_, _, reports) -> print_string reports) verdicts;
        flush stdout
      end;
      let failed id detail =
        { Baseline.c_id = id; c_ok = false; c_numbers = 0; c_max_rel = 0.0;
          c_detail = Some detail }
      in
      let checks =
        List.map2
          (fun (id, btable) (_, outcome) ->
            let tol = Baseline.tolerance_for ~default:tolerance doc id in
            ( (match Runner.table_of_outcome outcome with
              | Some t ->
                  Baseline.check_table ~id ~tol ~baseline:btable ~current:t
              | None -> failed id (Runner.describe outcome)),
              tol ))
          known results
        @ List.map
            (fun (id, _) ->
              (failed id "baseline names an unknown experiment", tolerance))
            unknown
      in
      Report.table
        ~header:[ "experiment"; "status"; "numbers"; "max rel dev"; "tolerance" ]
        ~rows:
          (List.map
             (fun (c, tol) ->
               [ c.Baseline.c_id;
                 (if c.Baseline.c_ok then "pass" else "FAIL");
                 string_of_int c.Baseline.c_numbers;
                 Printf.sprintf "%.5f" c.Baseline.c_max_rel;
                 Printf.sprintf "%.3f" tol ])
             checks);
      let bad = List.filter (fun (c, _) -> not c.Baseline.c_ok) checks in
      let current_tables = tables results in
      List.iter
        (fun (c, _) ->
          let id = c.Baseline.c_id in
          (match c.Baseline.c_detail with
          | Some d -> Printf.printf "  %s: %s\n" id d
          | None -> ());
          (* a tolerance failure explains itself: the three largest
             deltas, joined against any attribution the baseline embeds
             (the rerun is in-memory, so only the baseline can) *)
          match
            (List.assoc_opt id known, List.assoc_opt id current_tables)
          with
          | Some btable, Some ctable ->
              let top3 =
                List.filteri
                  (fun i _ -> i < 3)
                  (Explain.rank
                     (Explain.diff_tables ~id ~a:btable ~b:ctable))
              in
              if top3 <> [] then begin
                Printf.printf "  %s: largest deltas (baseline -> current):\n"
                  id;
                List.iter
                  (fun d -> Printf.printf "    %s\n" (Explain.describe d))
                  top3;
                List.iter
                  (fun line -> Printf.printf "    attribution: %s\n" line)
                  (Explain.attribution_lines baseline_json ~id)
              end
          | _ -> ())
        bad;
      let numbers =
        List.fold_left (fun acc (c, _) -> acc + c.Baseline.c_numbers) 0 checks
      in
      let passed = bad = [] && shadow_divergences = 0 in
      if passed then
        Printf.printf "\nOK: %d experiments, %d numbers within tolerance%s\n"
          (List.length checks) numbers
          (if shadow then ", zero shadow divergences" else "")
      else begin
        if bad <> [] then
          Printf.printf "\nFAIL: %d of %d experiments regressed\n"
            (List.length bad) (List.length checks);
        if shadow_divergences > 0 then
          Printf.printf
            "\nFAIL: %d shadow divergence(s) — the fast path disagreed with \
             the reference MMU\n"
            shadow_divergences
      end;
      Ok passed

(* The tail-latency SLO gate: rerun the budget file's experiments with
   span recording armed (at any --jobs — span data rides the runner's
   result pipe) and require every objective's measured percentile to be
   within its cycle budget.  Missing measurements fail: an SLO you
   cannot evaluate is not met. *)
let check_slo slo_file jobs timeout retries =
  match Slo.load slo_file with
  | Error msg -> Error (`Msg msg)
  | Ok doc ->
      let ids = Slo.experiments doc in
      let unknown = List.filter (fun id -> Experiments.find id = None) ids in
      if unknown <> [] then
        Error
          (`Msg
            ("slo: budget file names unknown experiment(s): "
            ^ String.concat ", " unknown))
      else begin
        Printf.printf
          "slo gate: %d objective(s) over %s (seed %d, %d jobs)\n\n"
          (List.length doc.Slo.d_objectives)
          (String.concat ", " ids) doc.Slo.d_seed jobs;
        flush stdout;
        let rc =
          run_experiments
            { Boot.plain with Boot.spans = true }
            ~collect:(fun _ kernels -> span_json kernels)
            ~jobs ~seed:doc.Slo.d_seed ~timeout ~retries ids
        in
        let spans =
          List.filter_map
            (fun (id, _, payload) -> Option.map (fun j -> (id, j)) payload)
            rc
        in
        let verdicts = Slo.evaluate ~spans doc in
        Report.table
          ~header:
            [ "experiment"; "config"; "class"; "metric"; "budget";
              "measured"; "status" ]
          ~rows:
            (List.map
               (fun v ->
                 let o = v.Slo.v_objective in
                 [ o.Slo.s_experiment;
                   o.Slo.s_config;
                   o.Slo.s_class;
                   Slo.metric_name o.Slo.s_metric;
                   string_of_int o.Slo.s_budget;
                   (match v.Slo.v_measured with
                   | Some m -> string_of_int m
                   | None -> "missing");
                   (if v.Slo.v_ok then "pass" else "FAIL") ])
               verdicts);
        let bad = List.filter (fun v -> not v.Slo.v_ok) verdicts in
        if bad = [] then
          Printf.printf "\nOK: %d SLO(s) within budget\n"
            (List.length verdicts)
        else
          Printf.printf "\nFAIL: %d of %d SLO(s) breached or unmeasured\n"
            (List.length bad) (List.length verdicts);
        Ok (bad = [])
      end

(* Every gate named runs and prints its verdict; the exit status is 1
   if any of them failed. *)
let run baseline_file slo_file cpus jobs timeout retries tolerance shadow =
  let ( let* ) = Result.bind in
  let gate file f = Option.fold file ~none:(Ok true) ~some:f in
  if baseline_file = None && slo_file = None then
    Error (`Msg "check: pass --baseline FILE and/or --slo FILE")
  else
    let* baseline_ok =
      gate baseline_file (fun f ->
          check_baseline f cpus jobs timeout retries tolerance shadow)
    in
    let* slo_ok =
      gate slo_file (fun f ->
          if baseline_file <> None then print_newline ();
          check_slo f jobs timeout retries)
    in
    if baseline_ok && slo_ok then Ok () else exit 1

let cmd =
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline results document (from $(b,experiment --json)).")
  in
  let slo =
    Arg.(
      value
      & opt (some file) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:"Tail-latency budget document: rerun the experiments it \
                names with span recording armed and fail if any \
                p50/p99/p999 cycle budget is exceeded (or cannot be \
                measured). Works at any $(b,--jobs); the spans document \
                is byte-identical across job counts.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.02
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:"Default relative tolerance per numeric cell; the baseline \
                file's \"tolerance\"/\"tolerances\" fields override it.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Rerun experiments and compare against a baseline; exit 1 on \
             regression."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Reruns every experiment named by the baseline at the \
              baseline's seed, extracts every numeric token from every \
              table cell, and requires each to match the recorded value \
              within a relative tolerance. The experiments are \
              deterministic per seed, so any drift is a real behaviour \
              change." ])
    Term.(
      term_result
        (const run $ baseline $ slo $ cpus_term $ jobs_term $ timeout_term
        $ retries_term $ tolerance $ shadow_term))
