open Ppc
open Cli
open Cmdliner

let run machine policy seed (wname, workload) out sample_every ring
    summarize =
  (* the trace command always traces: a ring of 0 (off in Boot.trace)
     still records, into one slot *)
  let k =
    Boot.with_config
      { Boot.plain with Boot.trace = max 1 ring; timeline = sample_every }
      (fun () -> Kernel.boot ~machine ~policy ~seed ())
  in
  workload k;
  let tr = Kernel.trace k in
  let doc =
    Trace_export.to_chrome ~mhz:machine.Machine.mhz
      ~name:("mmu_sim " ^ wname) tr
  in
  write_json ~compact:true out doc;
  Printf.printf
    "%s: %d events (%d retained, %d dropped), %d timeline samples -> %s\n"
    wname (Trace.total tr) (Trace.length tr) (Trace.dropped tr)
    (List.length (Trace.samples tr))
    out;
  if summarize then print_string (Trace_export.summary tr)

let cmd =
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON output file (load in Perfetto or \
                chrome://tracing).")
  in
  let ring =
    Arg.(
      value & opt int Trace.default_ring
      & info [ "ring" ] ~docv:"EVENTS"
          ~doc:"Event ring capacity; oldest events are dropped on overflow.")
  in
  let summarize =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:"Also print the text summary (event counts, latency \
                histograms).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload with event tracing and write Chrome trace JSON."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Boots a kernel, enables the event trace (TLB misses, htab \
              probes and evictions, context switches, flushes, page \
              faults, idle-task work), runs the workload, and writes the \
              events as a Chrome trace-event document with counter \
              timelines. Tracing never perturbs the simulation: counters \
              match an untraced run at the same seed exactly." ])
    Term.(
      const run $ machine_term $ policy_term $ seed_term $ workload_term $ out
      $ sample_every_term $ ring $ summarize)
