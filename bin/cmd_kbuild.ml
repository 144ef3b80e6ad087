open Ppc
open Cli
open Cmdliner
module Kbuild = Workloads.Kbuild

let run machine policy seed jobs =
  print_setup machine policy;
  let params = { Kbuild.default_params with Kbuild.jobs } in
  let r = Kbuild.measure ~machine ~policy ~params ~seed () in
  let p = r.Kbuild.perf in
  Report.table
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "wall clock (ms)"; Report.fmt_ms (r.Kbuild.wall_us /. 1000.) ];
        [ "busy (ms)"; Report.fmt_ms (r.Kbuild.busy_us /. 1000.) ];
        [ "idle fraction"; Report.fmt_pct (100. *. Metrics.idle_fraction p) ];
        [ "TLB misses"; Report.fmt_int (Perf.tlb_misses p) ];
        [ "TLB miss rate"; Printf.sprintf "%.4f%%" (100. *. Metrics.tlb_miss_rate p) ];
        [ "htab hit rate"; Report.fmt_pct (100. *. Metrics.htab_hit_rate p) ];
        [ "htab evict ratio"; Report.fmt_pct (100. *. Metrics.evict_ratio p) ];
        [ "cache misses (I+D)"; Report.fmt_int (Perf.cache_misses p) ];
        [ "page faults"; Report.fmt_int p.Perf.page_faults ];
        [ "context switches"; Report.fmt_int p.Perf.context_switches ];
        [ "syscalls"; Report.fmt_int p.Perf.syscalls ];
        [ "zombies reclaimed"; Report.fmt_int p.Perf.zombies_reclaimed ];
        [ "pre-zeroed page hits"; Report.fmt_int p.Perf.prezeroed_hits ] ]

let cmd =
  let jobs =
    Arg.(
      value & opt int 24
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Number of compile jobs.")
  in
  Cmd.v
    (Cmd.info "kbuild" ~doc:"Run the synthetic kernel-compile workload.")
    Term.(const run $ machine_term $ policy_term $ seed_term $ jobs)
