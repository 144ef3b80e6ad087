open Ppc
open Cli
open Cmdliner

(* The SMP counter payload for one experiment: every kernel the run
   booted, aggregated — the six shootdown/steal counters plus per-CPU
   TLB-miss slices.  A cpus=1 document simply shows "cpus": 1 and
   zeros, byte-identical to the committed baselines. *)
let smp_json kernels =
  let cpus = List.fold_left (fun a k -> max a (Kernel.cpus k)) 1 kernels in
  let sum f = List.fold_left (fun a k -> a + f (Kernel.perf k)) 0 kernels in
  let per_cpu f =
    List.init cpus (fun cpu ->
        Json.Int
          (List.fold_left
             (fun a k ->
               if cpu < Kernel.cpus k then a + f (Kernel.mmu k) ~cpu else a)
             0 kernels))
  in
  Json.Obj
    [ ("cpus", Json.Int cpus);
      ("kernels", Json.Int (List.length kernels));
      ("ipis_sent", Json.Int (sum (fun p -> p.Perf.ipis_sent)));
      ("tlb_shootdowns", Json.Int (sum (fun p -> p.Perf.tlb_shootdowns)));
      ( "shootdowns_deferred",
        Json.Int (sum (fun p -> p.Perf.shootdowns_deferred)) );
      ( "remote_tlb_invalidates",
        Json.Int (sum (fun p -> p.Perf.remote_tlb_invalidates)) );
      ("work_steals", Json.Int (sum (fun p -> p.Perf.work_steals)));
      ("vsid_wraps", Json.Int (sum (fun p -> p.Perf.vsid_wraps)));
      ("per_cpu_itlb_misses", Json.List (per_cpu Mmu.cpu_itlb_misses));
      ("per_cpu_dtlb_misses", Json.List (per_cpu Mmu.cpu_dtlb_misses)) ]

(* Each hosting process numbers the timeline runs it records; renumber
   one experiment's lines so that runs count up in file order. *)
let renumber_runs next lines =
  let ids = Hashtbl.create 8 in
  let renumber = function
    | "run", Json.Int r ->
        ( "run",
          Json.Int
            (match Hashtbl.find_opt ids r with
            | Some g -> g
            | None ->
                incr next;
                Hashtbl.add ids r !next;
                !next) )
    | field -> field
  in
  List.map
    (fun l ->
      match Json.of_string l with
      | Ok (Json.Obj fields) ->
          Json.to_string ~compact:true (Json.Obj (List.map renumber fields))
      | _ -> l)
    lines

let run names seed cpus jobs timeout retries strict shadow csv json out traced
    timeline profiled spanned sample_every record record_every detect_file
    requests =
  let tracing = traced || timeline in
  let rules =
    match detect_file with
    | None -> Ok Flight.default_rules
    | Some path -> Flight.load_rules path
  in
  if out <> None && not (csv || json) then
    Error (`Msg "--out requires --json or --csv")
  else if (tracing || profiled || spanned) && not json then
    Error (`Msg "--trace/--timeline/--profile/--spans require --json (the \
                 observability data is embedded in the results document)")
  else if record_every < 1 then
    Error (`Msg "--record-every must be at least 1 cycle")
  else if detect_file <> None && record = None then
    Error (`Msg "--detect requires --record (detectors run on the stream)")
  else if (match requests with Some n -> n < 1 | None -> false) then
    Error (`Msg "--requests must be at least 1")
  else
    match rules with
    | Error m -> Error (`Msg ("--detect: " ^ m))
    | Ok rules ->
  begin
    (* names were validated by the id converter, so find succeeds *)
    let ids =
      if names <> [] then names
      else List.map (fun s -> s.Experiments.id) Experiments.registry
    in
    (* One job streams every timeline line to disk as it is taken, so
       [mmu_sim watch] can tail the file while the run is live; forked
       children buffer theirs, ship them with the result, and the
       supervisor writes the file. *)
    let jobs = min (Runner.clamp_jobs jobs) (List.length ids) in
    let live = if jobs <= 1 then Option.map open_out record else None in
    let flight_buf = ref [] in
    let write l =
      match live with
      | Some oc ->
          output_string oc l;
          output_char oc '\n';
          flush oc
      | None -> flight_buf := l :: !flight_buf
    in
    let sink = Option.map (fun _ -> Flight.sink ~rules ~write ()) record in
    let config =
      { Boot.cpus;
        requests;
        trace = (if tracing then Trace.default_ring else 0);
        profile = profiled;
        timeline = (if timeline || profiled then sample_every else 0);
        spans = spanned;
        shadow;
        record = Option.map (fun sk -> (record_every, Flight.attach sk)) sink }
    in
    (* one observability object per experiment — the trace fields, then
       "profile", "spans" and "smp" — plus the "shadow" verdict and the
       "flight" lines, which leave the document *)
    let collect _id kernels =
      let fields =
        (if tracing then
           match
             Trace_export.observability_json ~timelines:timeline
               (List.map Kernel.trace kernels)
           with
           | Json.Obj fields -> fields
           | j -> [ ("trace", j) ]
         else [])
        @ (if profiled then
             [ ( "profile",
                 Profile_export.to_json (List.map Kernel.profile kernels) ) ]
           else [])
        @ (if spanned then
             Option.fold (span_json kernels) ~none:[] ~some:(fun j ->
                 [ ("spans", j) ])
           else [])
        @ (if kernels = [] then [] else [ ("smp", smp_json kernels) ])
        @ (if shadow then [ ("shadow", shadow_json kernels) ] else [])
        @
        match sink with
        | None -> []
        | Some sk ->
            List.iter (fun k -> Flight.finish sk (Kernel.recorder k)) kernels;
            let lines = List.rev !flight_buf in
            flight_buf := [];
            if lines = [] then []
            else
              [ ("flight", Json.List (List.map (fun l -> Json.String l) lines))
              ]
      in
      if fields = [] then None else Some (Json.Obj fields)
    in
    let rc = run_experiments config ~collect ~jobs ~seed ~timeout ~retries ids in
    Option.iter close_out live;
    let results = List.map (fun (id, o, _) -> (id, o)) rc in
    let observability =
      List.filter_map
        (fun (id, _, payload) ->
          match payload with
          | Some (Json.Obj fields) -> (
              match
                List.filter
                  (fun (k, _) -> k <> "shadow" && k <> "flight")
                  fields
              with
              | [] -> None
              | fields -> Some (id, Json.Obj fields))
          | _ -> None)
        rc
    in
    let incidents =
      match (sink, live) with
      | None, _ -> []
      | Some sk, Some _ -> Flight.incidents sk
      | Some _, None ->
          let next = ref 0 in
          let lines =
            List.concat_map
              (fun (_, _, payload) ->
                match Option.bind payload (Json.member "flight") with
                | Some (Json.List l) ->
                    renumber_runs next (List.filter_map Json.to_string_opt l)
                | _ -> [])
              rc
          in
          Out_channel.with_open_text (Option.get record) (fun oc ->
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                lines);
          List.filter_map
            (fun l ->
              match Json.of_string l with
              | Ok j when Json.member "t" j = Some (Json.String "i") ->
                  Some (Flight.incident_of_json j)
              | _ -> None)
            lines
    in
    (* Shadow verdict: totals to stderr (stdout stays a clean document),
       full per-divergence reports, and a hard failure if the fast path
       ever disagreed with the reference MMU. *)
    let verdicts =
      List.map (fun (id, _, payload) -> (id, shadow_verdict payload)) rc
    in
    let divergent = List.filter (fun (_, (_, n, _)) -> n > 0) verdicts in
    if shadow then begin
      let sum f = List.fold_left (fun a (_, v) -> a + f v) 0 verdicts in
      Printf.eprintf
        "shadow: %d translations cross-checked over %d experiment(s), %d \
         divergence(s)\n"
        (sum (fun (c, _, _) -> c))
        (List.length verdicts)
        (sum (fun (_, n, _) -> n));
      List.iter
        (fun (id, (_, n, reports)) ->
          Printf.eprintf "shadow: experiment %s: %d divergence(s)\n" id n;
          prerr_string reports)
        divergent;
      flush stderr
    end;
    let tables = tables results in
    (* hard failures never produced a table; degraded ones did, but only
       after the supervisor intervened (retries) *)
    let hard =
      List.filter (fun (_, o) -> Runner.table_of_outcome o = None) results
    in
    let degraded =
      List.filter
        (fun (_, o) ->
          match o with
          | Runner.Retried _ -> Runner.table_of_outcome o <> None
          | _ -> false)
        results
    in
    let failures =
      List.map (fun (id, o) -> (id, Runner.describe o)) hard
    in
    let emit oc =
      if json then
        output_string oc
          (Json.to_string
             (Baseline.doc_to_json ~observability ~failures ~seed tables)
          ^ "\n")
      else if csv then
        List.iter
          (fun (_, t) -> output_string oc (Experiments.to_csv t ^ "\n"))
          tables
    in
    (match out with
    | Some path -> Out_channel.with_open_text path emit
    | None ->
        if csv || json then emit stdout
        else List.iter (fun (_, t) -> Experiments.print t) tables);
    (* the detector verdict goes to stderr so --json/--csv stdout stays
       a clean document *)
    (match record with
    | None -> ()
    | Some path ->
        Printf.eprintf "flight: %d incident(s) -> %s\n"
          (List.length incidents) path;
        List.iter
          (fun i ->
            Printf.eprintf "flight:   %s\n" (Flight.describe_incident i))
          incidents;
        flush stderr);
    (* the failure table goes to stderr so --json/--csv stdout stays a
       clean document *)
    let unclean = hard @ degraded in
    if unclean <> [] then begin
      Printf.eprintf "\n%d of %d experiment(s) did not complete cleanly:\n"
        (List.length unclean) (List.length results);
      Printf.eprintf "  %-6s %s\n" "id" "status";
      List.iter
        (fun (id, o) -> Printf.eprintf "  %-6s %s\n" id (Runner.describe o))
        unclean;
      flush stderr
    end;
    let failure =
      if hard <> [] then
        Some
          (String.concat "; "
             (List.map (fun (id, o) -> id ^ ": " ^ Runner.describe o) hard))
      else if divergent <> [] then
        Some
          (Printf.sprintf
             "shadow: fast path diverged from the reference MMU in %s \
              (reports above)"
             (String.concat ", " (List.map fst divergent)))
      else if strict && degraded <> [] then
        Some
          (Printf.sprintf
             "--strict: %d experiment(s) needed supervision (see table above)"
             (List.length degraded))
      else if strict && incidents <> [] then
        Some
          (Printf.sprintf
             "--strict: %d flight-recorder incident(s) fired (see stderr)"
             (List.length incidents))
      else None
    in
    match failure with
    | None -> Ok ()
    | Some msg -> fail msg
  end

let experiment_id =
  let parse s =
    match Experiments.find s with
    | Some spec -> Ok spec.Experiments.id
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown experiment %S (known: %s)" s
               (String.concat ", "
                  (List.map (fun x -> x.Experiments.id) Experiments.runnable))))
  in
  Arg.conv (parse, Format.pp_print_string)

let cmd =
  let names =
    Arg.(value & pos_all experiment_id [] & info [] ~docv:"NAME"
           ~doc:"Experiment ids (T1..T3, E1..E19, EX1..EX7, diagnostics \
                 D1, D2, long-horizon E20, the sec-5.2 multiplier sweep \
                 EX3); all of the registry if none (diagnostics, \
                 long-horizon runs and EX3 only run when named).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the machine-readable results document (the baseline \
                format) instead of tables.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write --json/--csv output to $(docv) instead of stdout.")
  in
  let traced =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Record event traces and latency histograms while the \
                experiments run, embedded per experiment in the --json \
                document (counters are unaffected).")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Sample the Perf counters every --sample-every cycles and \
                embed the timelines in the --json document (implies the \
                tracing machinery).")
  in
  let profiled =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Run the attribution profiler while the experiments run and \
                embed the attribution document (miss accounts, hot pages, \
                TLB census, htab occupancy map) per experiment in the \
                --json output (counters are unaffected).")
  in
  let spanned =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:"Record request-level spans (per-request latency and \
                critical-path breakdowns from server-shaped workloads) \
                and embed them under observability.spans in the --json \
                document (counters are unaffected).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit nonzero unless every experiment completed cleanly on \
                its first attempt — a run that only succeeded after the \
                supervisor retried lost experiments counts as a failure. \
                Also fails a --record run whose detectors fired any \
                incident.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Arm the flight recorder and stream its telemetry timeline \
                (delta-encoded JSONL: counter snapshots, htab/TLB/run-queue \
                gauges, detector incidents) to $(docv) while the \
                experiments run. Recording is observation-only — counters \
                and tables are byte-identical to an unrecorded run. At one \
                job every line is written as it is taken, so \
                $(b,mmu_sim watch) can tail the file; forked children \
                ship their lines over the runner's result pipe and the \
                file is written when the run ends.")
  in
  let record_every =
    Arg.(
      value
      & opt int Recorder.default_every
      & info [ "record-every" ] ~docv:"CYCLES"
          ~doc:"Flight-recorder sampling cadence in simulated cycles.")
  in
  let detect =
    Arg.(
      value
      & opt (some file) None
      & info [ "detect" ] ~docv:"RULES.json"
          ~doc:"Detector rules for the --record stream ({\"rules\": \
                [{\"id\", \"metric\", one of \"above\"/\"below\"/\"step\", \
                optional \"window\", \"cooldown\"}]}); without this flag \
                the five stock detectors run. Incidents are streamed into \
                the timeline, summarized on stderr, and fail the run \
                under --strict.")
  in
  let requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Request count for the server-model experiments (E17..E20). \
                The default (200) keeps the committed baselines \
                byte-identical; long-horizon runs take 100000 and more \
                in bounded memory thanks to the recorder's decimation.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run reproduction experiments (tables printed with paper values)."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Experiments run under a supervising parent, each in a \
              forked child of its own: child exit statuses are \
              inspected, an experiment lost to a crashed or hung child \
              is retried within --retries, and every attempt is bounded \
              by --timeout. Experiments that never produce a table are \
              listed in a failure table on stderr (and under a \
              \"failures\" key in the --json document) and make the exit \
              status 1; --strict also fails runs that needed retries. \
              $(b,MMU_SIM_FAULT)=kill:<id>|exit:<id>[:n]|raise:<id>|\
              hang:<id> injects deterministic faults for testing the \
              supervision paths." ])
    Term.(
      term_result
        (const run $ names $ seed_term $ cpus_term $ jobs_term
        $ timeout_term $ retries_term $ strict $ shadow_term $ csv $ json
        $ out $ traced $ timeline $ profiled $ spanned $ sample_every_term
        $ record $ record_every $ detect $ requests))
