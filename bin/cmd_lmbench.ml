open Cli
open Cmdliner
module Lmbench = Workloads.Lmbench

let run machine policy seed =
  print_setup machine policy;
  let s = Lmbench.run ~machine ~policy ~seed () in
  Report.table
    ~header:[ "benchmark"; "value" ]
    ~rows:
      [ [ "null syscall (us)"; Report.fmt_us s.Lmbench.null_us ];
        [ "context switch 2p (us)"; Report.fmt_us s.Lmbench.ctxsw2_us ];
        [ "context switch 8p (us)"; Report.fmt_us s.Lmbench.ctxsw8_us ];
        [ "pipe latency (us)"; Report.fmt_us s.Lmbench.pipe_lat_us ];
        [ "pipe bandwidth (MB/s)"; Report.fmt_mbs s.Lmbench.pipe_bw_mbs ];
        [ "file reread (MB/s)"; Report.fmt_mbs s.Lmbench.file_reread_mbs ];
        [ "mmap latency (us)"; Report.fmt_us s.Lmbench.mmap_lat_us ];
        [ "process start (ms)"; Report.fmt_ms s.Lmbench.pstart_ms ] ]

let cmd =
  Cmd.v
    (Cmd.info "lmbench" ~doc:"Run the LmBench-style microbenchmark suite.")
    Term.(const run $ machine_term $ policy_term $ seed_term)
