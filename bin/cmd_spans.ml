open Ppc
open Cli
open Cmdliner
module Sv = Workloads.Server

let run machine policy seed model out top slowest =
  let k =
    Boot.with_config { Boot.plain with Boot.spans = true } (fun () ->
        Kernel.boot ~machine ~policy ~seed ())
  in
  let sp = Kernel.span k in
  Span.set_label sp (Sv.model_name model);
  let params = { Sv.default_params with Sv.model } in
  ignore (Sv.run k ~params : Hist.t * (string * Hist.t) list);
  (match out with
  | None -> ()
  | Some path ->
      write_json ~compact:true path
        (Span_export.to_chrome ~mhz:machine.Machine.mhz
           ~name:("mmu_sim " ^ Sv.model_name model)
           [ sp ]);
      Printf.printf "per-request Perfetto tracks -> %s\n" path);
  print_string (Span_export.summary sp);
  print_newline ();
  Report.table
    ~header:[ "class"; "requests"; "p50"; "p99"; "p999"; "max" ]
    ~rows:
      (Array.to_list
         (Array.mapi
            (fun i name ->
              match Span.class_hist sp i with
              | Some h ->
                  [ name;
                    string_of_int (Hist.count h);
                    string_of_int (Hist.percentile h 0.50);
                    string_of_int (Hist.percentile h 0.99);
                    string_of_int (Hist.percentile h 0.999);
                    string_of_int (Hist.max_value h) ]
              | None -> [ name; "0"; "-"; "-"; "-"; "-" ])
            (Span.class_names sp)));
  if slowest then begin
    Printf.printf "slowest %d requests (cycles):\n" top;
    print_string (Span_export.slowest_table ~top sp)
  end

let cmd =
  let model =
    Arg.(
      value
      & pos 0
          (enum
             [ ("fork-exec", Sv.Fork_exec);
               ("pool", Sv.Pool);
               ("shared-mm", Sv.Shared_mm) ])
          Sv.Pool
      & info [] ~docv:"MODEL"
          ~doc:"Service model: fork-exec, pool, shared-mm.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write per-request Perfetto tracks (one thread per \
                request, arrival-to-completion slices with component \
                breakdowns in args) to $(docv).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows in the $(b,--slowest) table.")
  in
  let slowest =
    Arg.(
      value & flag
      & info [ "slowest" ]
          ~doc:"Print the N slowest requests with their critical-path \
                breakdowns (latency, syscall, reload, htab, context \
                switch, run — all in cycles).")
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:"Run the server workload with request spans and report \
             per-request critical paths."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Boots a kernel, arms the span recorder, and drives the \
              server-shaped workload under the chosen service model. \
              Every request's lifecycle is followed — arrival, syscall \
              windows, run slices, each TLB-miss reload, htab search and \
              context switch serviced on its behalf — and summarized as \
              per-class latency percentiles plus the slowest requests' \
              breakdowns. Recording is observation-only: counters match \
              an unrecorded run at the same seed exactly." ])
    Term.(
      const run $ machine_term $ policy_term $ seed_term $ model $ out $ top
      $ slowest)
