open Cli
open Cmdliner

let parse_assignment s =
  List.map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
          ( String.sub kv 0 i,
            String.sub kv (i + 1) (String.length kv - i - 1) )
      | None -> failwith ("expected KEY=VALUE, got " ^ kv))
    (String.split_on_char ',' s)

let parse_axis s =
  match String.index_opt s '=' with
  | None -> failwith ("--axis: expected KEY=V1,V2,..., got " ^ s)
  | Some i ->
      let key = String.sub s 0 i in
      let values =
        List.filter
          (fun v -> v <> "")
          (String.split_on_char ','
             (String.sub s (i + 1) (String.length s - i - 1)))
      in
      if values = [] then failwith ("--axis " ^ key ^ ": no values")
      else { Tuner.a_key = key; a_values = values }

let run wl_names axis_specs smoke jobs seed timeout retries json out
    expect explained top =
  try
    let workloads =
      match wl_names with
      | [] -> if smoke then Tuner.smoke_workloads else Tuner.default_workloads
      | names ->
          let known =
            List.map (fun w -> (w.Tuner.w_name, w)) Tuner.default_workloads
          in
          List.map
            (fun n ->
              match List.assoc_opt n known with
              | Some w -> w
              | None ->
                  failwith
                    ("unknown workload " ^ n ^ " (known: "
                    ^ String.concat ", " (List.map fst known)
                    ^ ")"))
            names
    in
    let axes =
      match axis_specs with
      | [] -> if smoke then Tuner.smoke_axes else Tuner.default_axes
      | specs -> List.map parse_axis specs
    in
    let extra =
      match expect with
      | None -> []
      | Some s ->
          [ Tuner.candidate_of_assignment ~base:Cpolicy.paper_default
              (parse_assignment s) ]
    in
    let result =
      Tuner.tune ~jobs ~seed ~timeout ~retries ~extra ~workloads ~axes ()
    in
    let info = if json then Printf.eprintf else Printf.printf in
    if not json then begin
      Report.section "Policy auto-tuner (grid, Pareto scoring)";
      Report.table
        ~header:[ "candidate"; "score vs base"; "Pareto" ]
        ~rows:
          (List.map
             (fun e ->
               [ e.Tuner.e_cand.Tuner.c_label;
                 Printf.sprintf "%.4f" (Tuner.score ~base:result.Tuner.r_base e);
                 (if
                    Tuner.on_front result e.Tuner.e_cand.Tuner.c_label
                  then "front"
                  else "dominated") ])
             result.Tuner.r_evals)
    end;
    info "tuner: %d candidate(s) over %d workload(s), %d on the Pareto front\n"
      (List.length result.Tuner.r_evals)
      (List.length workloads)
      (List.length result.Tuner.r_front);
    info "tuner: winner %s (score %.4f vs %s)\n"
      result.Tuner.r_winner.Tuner.e_cand.Tuner.c_label
      (Tuner.score ~base:result.Tuner.r_base result.Tuner.r_winner)
      result.Tuner.r_base.Tuner.e_cand.Tuner.c_label;
    List.iter
      (fun (id, e) -> Printf.eprintf "tuner: %s: %s\n" id e)
      result.Tuner.r_failures;
    let docj = Tuner.doc ~seed ~axes ~workloads result in
    (match out with
    | Some path ->
        write_json path docj;
        info "tuner: wrote %s\n" path
    | None -> ());
    if json then print_endline (Json.to_string docj);
    if explained then begin
      let print = if json then Printf.eprintf "%s" else Printf.printf "%s" in
      let lines =
        Tuner.explain ~top ~seed ~workloads
          ~base:result.Tuner.r_base.Tuner.e_cand
          ~candidate:result.Tuner.r_winner.Tuner.e_cand ()
      in
      print
        (Printf.sprintf "\nwhy '%s' differs from '%s':\n"
           result.Tuner.r_winner.Tuner.e_cand.Tuner.c_label
           result.Tuner.r_base.Tuner.e_cand.Tuner.c_label);
      if lines = [] then print "  no metric deltas — the winner ties the base\n"
      else List.iter (fun l -> print ("  " ^ l)) lines
    end;
    match expect with
    | None -> Ok ()
    | Some s ->
        let label = Tuner.label_of (parse_assignment s) in
        if Tuner.on_front result label then
          fail
            (Printf.sprintf "--expect-dominated: %s sits ON the Pareto front"
               label)
        else begin
          info "tuner: %s is dominated, as expected\n" label;
          Ok ()
        end
  with
  | Failure msg | Invalid_argument msg -> Error (`Msg ("tune: " ^ msg))

let cmd =
  let wl_names =
    Arg.(
      value & opt_all string []
      & info [ "w"; "workloads" ] ~docv:"NAME"
          ~doc:"Workloads to score on (kbuild, server-pool, \
                server-fork_exec); repeatable. Default: all three (with \
                $(b,--smoke): the smoke diet).")
  in
  let axis_specs =
    Arg.(
      value & opt_all string []
      & info [ "axis" ] ~docv:"KEY=V1,V2,..."
          ~doc:"One grid axis: a policy knob and its candidate values; \
                repeatable. The axes are the whole search space: list the \
                base's own value on an axis to search around it. Default: \
                vsid_multiplier x flush_cutoff x tlb_replacement.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI diet: a 2x2x2 grid over two small workloads.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the tuner document (mmu-tricks/tuner-v1) on stdout \
                instead of tables (progress goes to stderr).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the tuner document to $(docv).")
  in
  let expect =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-dominated" ] ~docv:"KEY=VAL[,KEY=VAL...]"
          ~doc:"Evaluate this extra candidate and exit 1 if it \
                lands ON the Pareto front — the CI proof that a known-bad \
                policy is actually dominated and flagged.")
  in
  let explained =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Rerun the workloads under the winner and the base with \
                the attribution profiler armed, and print which \
                PID/segment accounts explain the difference.")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"Deltas reported by $(b,--explain), largest first.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Derive policy constants with the parallel auto-tuner (grid, \
             Pareto scoring)."
       ~man:
         [ `S Manpage.s_description;
           `P
             "The paper's authors tuned constants by hand — \"adjusting \
              the constant until hot-spots disappeared\" (sec 5.2). This \
              command is that loop as infrastructure: enumerate candidate \
              policies over knob axes, score each on translation cost, \
              tail latency and htab hot spots per workload (one isolated \
              kernel per candidate x workload, fanned through the \
              fault-tolerant parallel runner — results are byte-identical \
              at any --jobs), keep the Pareto front, and report why the \
              winner beats paper_default. The axes are the whole search \
              space." ])
    Term.(
      term_result
        (const run $ wl_names $ axis_specs $ smoke $ jobs_term
        $ seed_term $ timeout_term $ retries_term $ json $ out $ expect
        $ explained $ top))
