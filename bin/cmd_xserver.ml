open Ppc
open Cli
open Cmdliner
module X = Workloads.Xserver

let run machine policy seed =
  print_setup machine policy;
  let r = X.measure ~machine ~policy ~seed () in
  Report.table
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "us per request"; Report.fmt_us r.X.us_per_round ];
        [ "TLB misses"; Report.fmt_int (Perf.tlb_misses r.X.perf) ];
        [ "page faults"; Report.fmt_int r.X.perf.Perf.page_faults ];
        [ "cache misses"; Report.fmt_int (Perf.cache_misses r.X.perf) ] ]

let cmd =
  Cmd.v
    (Cmd.info "xserver"
       ~doc:"Run the display-server workload (frame-buffer BAT scenario).")
    Term.(const run $ machine_term $ policy_term $ seed_term)
