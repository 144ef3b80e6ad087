open Cli
open Cmdliner

let run a_file b_file top =
  let load path =
    Result.map_error
      (fun msg -> `Msg (path ^ ": " ^ msg))
      (Baseline.load_with_json path)
  in
  match (load a_file, load b_file) with
  | Error e, _ | _, Error e -> Error e
  | Ok (a_doc, a_json), Ok (b_doc, b_json) ->
      let reports =
        Explain.explain_docs ~top ~a_doc ~a_json ~b_doc ~b_json ()
      in
      if reports = [] then
        Printf.printf
          "no numeric deltas between the experiments common to %s and %s\n"
          a_file b_file
      else begin
        Printf.printf "%d largest delta(s), %s -> %s:\n" (List.length reports)
          a_file b_file;
        List.iter (fun r -> print_string (Explain.render_report r)) reports
      end;
      Ok ()

let cmd =
  let a_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "a" ] ~docv:"FILE"
          ~doc:"The older results document (from $(b,experiment --json)).")
  in
  let b_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "b" ] ~docv:"FILE" ~doc:"The newer results document.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Deltas reported, largest first.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Diff two results documents and name what moved, ranked by \
             contribution."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Compares every numeric token of every experiment the two \
              documents share, ranks the deltas by relative deviation \
              (the same measure $(b,check) gates on), and — when either \
              document was produced with $(b,experiment --profile) — \
              joins each delta against the embedded attribution to name \
              the PID, segment and miss kind responsible." ])
    Term.(term_result (const run $ a_file $ b_file $ top))
