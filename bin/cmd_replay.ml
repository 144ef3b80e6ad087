open Cli
open Cmdliner

let run file perfetto mhz detect_file strict =
  let rules =
    match detect_file with
    | None -> Ok None
    | Some path -> Result.map Option.some (Flight.load_rules path)
  in
  match rules with
  | Error m -> Error (`Msg ("--detect: " ^ m))
  | Ok rules -> (
      match Flight.read_file file with
      | Error m -> Error (`Msg m)
      | Ok [] -> Error (`Msg (file ^ ": no timeline runs"))
      | Ok tls ->
          (* detection runs once per timeline: the tables and the
             --strict total read the same incidents *)
          let runs =
            List.map
              (fun tl ->
                ( tl,
                  match rules with
                  | None -> tl.Flight.tl_incidents
                  | Some r -> Flight.detect ~rules:r tl ))
              tls
          in
          List.iter
            (fun (tl, incidents) ->
              Report.section
                (Printf.sprintf "flight: %s (run %d)"
                   (if tl.Flight.tl_label = "" then "unlabeled"
                    else tl.Flight.tl_label)
                   tl.Flight.tl_run);
              Printf.printf
                "%d sample(s) streamed, %d taken; cadence %s -> %s cycles%s\n\n"
                (List.length tl.Flight.tl_views)
                tl.Flight.tl_total
                (Report.fmt_int tl.Flight.tl_every)
                (Report.fmt_int tl.Flight.tl_final_every)
                (if tl.Flight.tl_ended then "" else "; no end record (truncated run?)");
              let rows =
                List.map
                  (fun (name, points) ->
                    let values = List.map snd points in
                    let mn = List.fold_left min (List.hd values) values in
                    let mx = List.fold_left max (List.hd values) values in
                    let mean =
                      List.fold_left ( +. ) 0. values
                      /. float_of_int (List.length values)
                    in
                    let last = List.nth values (List.length values - 1) in
                    [ name;
                      string_of_int (List.length values);
                      fmt_metric mn;
                      fmt_metric mean;
                      fmt_metric mx;
                      fmt_metric last ])
                  (Flight.series tl)
              in
              if rows = [] then print_string "(no computable metrics)\n"
              else
                Report.table
                  ~header:[ "metric"; "points"; "min"; "mean"; "max"; "last" ]
                  ~rows;
              if incidents <> [] then begin
                Printf.printf "\nincidents%s:\n"
                  (if rules = None then "" else " (re-detected)");
                Report.table
                  ~header:[ "cycle"; "rule"; "metric"; "value"; "trigger" ]
                  ~rows:
                    (List.map
                       (fun i ->
                         [ Report.fmt_int i.Flight.i_cycle;
                           i.Flight.i_rule;
                           i.Flight.i_metric;
                           fmt_metric i.Flight.i_value;
                           i.Flight.i_trigger ])
                       incidents)
              end;
              print_newline ())
            runs;
          (match perfetto with
          | None -> ()
          | Some outp ->
              write_json outp (Flight.to_chrome ~mhz tls);
              Printf.printf "wrote Perfetto counter tracks to %s\n" outp);
          let total_incidents =
            List.fold_left (fun a (_, i) -> a + List.length i) 0 runs
          in
          if strict && total_incidents > 0 then
            fail
              (Printf.sprintf "--strict: %d incident(s) in the timeline"
                 total_incidents)
          else Ok ())

let cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TIMELINE"
          ~doc:"Timeline JSONL file from $(b,experiment --record).")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Also write Perfetto/Chrome trace JSON with one counter \
                track per derived metric and an instant marker per \
                incident (load in ui.perfetto.dev).")
  in
  let mhz =
    Arg.(
      value & opt int 100
      & info [ "mhz" ] ~docv:"MHZ"
          ~doc:"Clock used to convert cycles to Perfetto microsecond \
                timestamps.")
  in
  let detect =
    Arg.(
      value
      & opt (some file) None
      & info [ "detect" ] ~docv:"RULES.json"
          ~doc:"Re-run detection over the decoded timeline with these \
                rules instead of showing the incidents recorded in it.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit 1 if any incident is present (or, with \
                --detect, re-fires).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Render a recorded flight-recorder timeline: per-run metric \
             tables, incidents, Perfetto counter tracks."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Decodes a --record timeline (re-integrating the \
              delta-encoded lines), prints one section per recorded run \
              with min/mean/max/last for every derived metric and the \
              incident log, and optionally exports Perfetto counter \
              tracks. With --detect, detection is re-run offline — the \
              way to try tighter thresholds against a stored run." ])
    Term.(
      term_result (const run $ file $ perfetto $ mhz $ detect $ strict))
