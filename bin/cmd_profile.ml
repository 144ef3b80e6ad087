open Ppc
open Cli
open Cmdliner

let run machine policy seed (wname, workload) out fold top sample_every =
  let k =
    Boot.with_config
      { Boot.plain with Boot.profile = true; timeline = sample_every }
      (fun () -> Kernel.boot ~machine ~policy ~seed ())
  in
  workload k;
  let pr = Kernel.profile k in
  (match out with
  | None -> ()
  | Some path ->
      write_json path (Profile_export.to_json ~top [ pr ]);
      Printf.printf "%s: attribution JSON -> %s\n" wname path);
  (match fold with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Profile_export.folded [ pr ]));
      Printf.printf "%s: folded stacks -> %s\n" wname path);
  print_string (Profile_export.summary ~top [ pr ])

let cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the attribution JSON (accounts, hot pages, TLB \
                census, htab occupancy map) to $(docv).")
  in
  let fold =
    Arg.(
      value
      & opt (some string) None
      & info [ "fold" ] ~docv:"FILE"
          ~doc:"Write flamegraph-collapsed stacks \
                (pid_N;seg_0xS;kind cost, one line per account) to \
                $(docv) — feed to flamegraph.pl or speedscope.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Hot pages listed per miss kind.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a workload with attribution profiling and report who owns \
             every miss."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Boots a kernel, enables the attribution profiler (per-PID, \
              per-segment miss accounts with reload-cost totals and hot \
              pages; a kernel-vs-user TLB slot census after every reload; \
              an htab occupancy map sampled every --sample-every cycles), \
              runs the workload, and prints a text heatmap. Profiling \
              never perturbs the simulation: counters match an unprofiled \
              run at the same seed exactly." ])
    Term.(
      const run $ machine_term $ policy_term $ seed_term $ workload_term $ out
      $ fold $ top $ sample_every_term)
