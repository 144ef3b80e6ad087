open Ppc
open Cli
open Cmdliner
module Mu = Workloads.Multiuser

let run machine policy seed rounds =
  print_setup machine policy;
  let params = { Mu.default_params with Mu.rounds } in
  let r = Mu.measure ~machine ~policy ~params ~seed () in
  Report.table
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "busy (ms)"; Report.fmt_ms (r.Mu.busy_us /. 1000.) ];
        [ "wall (ms)"; Report.fmt_ms (r.Mu.wall_us /. 1000.) ];
        [ "keystroke latency (us)"; Report.fmt_us r.Mu.keystroke_us ];
        [ "utility start (us)"; Report.fmt_us r.Mu.utility_us ];
        [ "TLB misses"; Report.fmt_int (Perf.tlb_misses r.Mu.perf) ];
        [ "htab hit rate";
          Report.fmt_pct (100. *. Metrics.htab_hit_rate r.Mu.perf) ] ]

let cmd =
  let rounds =
    Arg.(
      value & opt int 40
      & info [ "rounds" ] ~docv:"N" ~doc:"Interleaving rounds.")
  in
  Cmd.v
    (Cmd.info "multiuser" ~doc:"Run the multiuser development-day workload.")
    Term.(const run $ machine_term $ policy_term $ seed_term $ rounds)
