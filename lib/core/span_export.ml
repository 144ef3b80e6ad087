(* Exporters for Ppc.Span recorders: the machine-readable spans
   document embedded in experiment results, Perfetto per-request
   tracks, and the slowest-request text table.  This module depends on
   Ppc.Span; the recorder itself knows nothing about JSON. *)

open Ppc

(* Integer percentiles (Hist.percentile, bucket upper bounds) on
   purpose: the spans document is diffed byte-for-byte across --jobs
   counts and gated by check --slo, so every number in it must be
   exactly reproducible. *)
let hist_json h =
  Json.Obj
    [ ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("max", Json.Int (Hist.max_value h));
      ("p50", Json.Int (Hist.percentile h 0.50));
      ("p99", Json.Int (Hist.percentile h 0.99));
      ("p999", Json.Int (Hist.percentile h 0.999));
      ("buckets",
       Json.List
         (List.map
            (fun (lo, hi, n) ->
              Json.List [ Json.Int lo; Json.Int hi; Json.Int n ])
            (Hist.buckets h))) ]

let request_json sp (r : Span.request) =
  Json.Obj
    [ ("rid", Json.Int r.Span.q_rid);
      ("class", Json.String (Span.class_name sp r.Span.q_cls));
      ("arrival", Json.Int r.Span.q_arrival);
      ("latency", Json.Int r.Span.q_latency);
      ("syscalls", Json.Int r.Span.q_syscalls);
      ("syscall_cost", Json.Int r.Span.q_syscall_cost);
      ("reloads", Json.Int r.Span.q_reloads);
      ("reload_cost", Json.Int r.Span.q_reload_cost);
      ("htab_misses", Json.Int r.Span.q_htab_misses);
      ("htab_cost", Json.Int r.Span.q_htab_cost);
      ("ctxsw", Json.Int r.Span.q_ctxsw);
      ("ctxsw_cost", Json.Int r.Span.q_ctxsw_cost);
      ("run_cost", Json.Int r.Span.q_run_cost) ]

let recorder_json ?(top = 5) sp =
  let t = Span.totals sp in
  let classes =
    Array.to_list
      (Array.mapi
         (fun i name ->
           match Span.class_hist sp i with
           | Some h ->
               (match hist_json h with
               | Json.Obj fields ->
                   Json.Obj (("class", Json.String name) :: fields)
               | j -> j)
           | None -> Json.Obj [ ("class", Json.String name) ])
         (Span.class_names sp))
  in
  let comp ~count ~cost =
    Json.Obj [ ("count", Json.Int count); ("cost", Json.Int cost) ]
  in
  Json.Obj
    [ ("config", Json.String (Span.label sp));
      ("requests", Json.Int (Span.requests sp));
      ("completed", Json.Int (Span.completed sp));
      ("overall", hist_json (Span.hist_latency sp));
      ("classes", Json.List classes);
      ("components",
       Json.Obj
         [ ("syscall",
            comp ~count:t.Span.t_syscalls ~cost:t.Span.t_syscall_cost);
           ("tlb_reload",
            comp ~count:t.Span.t_reloads ~cost:t.Span.t_reload_cost);
           ("htab_miss",
            comp ~count:t.Span.t_htab_misses ~cost:t.Span.t_htab_cost);
           ("ctxsw", comp ~count:t.Span.t_ctxsw ~cost:t.Span.t_ctxsw_cost);
           ("run", comp ~count:0 ~cost:t.Span.t_run_cost) ]);
      ("slowest",
       Json.List (List.map (request_json sp) (Span.slowest sp ~top))) ]

let interesting sp = Span.requests sp > 0

let to_json ?top recorders =
  Json.List (List.map (recorder_json ?top) recorders)

(* ----------------------------------------------------------- Perfetto *)

(* One Perfetto process per recorder (named by its config label), one
   thread per request, one complete ("X") slice from arrival to finish
   with the component breakdown in args — queued requests show as
   overlapping slices, which is exactly what a fat tail looks like. *)
let to_chrome ?(mhz = 100) ?(name = "mmu_sim spans") recorders =
  let events = ref [] in
  let emit e = events := e :: !events in
  List.iteri
    (fun pi sp ->
      let pid = pi + 1 in
      emit (Perfetto.process_name ~pid (name ^ ": " ^ Span.label sp));
      Span.iter sp (fun r ->
          if r.Span.q_finish >= 0 then begin
            let tid = r.Span.q_rid + 1
            and cls = Span.class_name sp r.Span.q_cls in
            emit
              (Perfetto.thread_name ~pid ~tid
                 (Printf.sprintf "req %d (%s)" r.Span.q_rid cls));
            emit
              (Perfetto.slice ~mhz ~cat:"request" ~name:cls ~pid ~tid
                 ~start:r.Span.q_arrival ~cycles:r.Span.q_latency
                 (request_json sp r))
          end))
    recorders;
  Perfetto.document (List.rev !events)

(* -------------------------------------------------------- text tables *)

let slowest_table ?(top = 10) sp =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-5s %-18s %10s %10s %9s %9s %8s %9s\n" "rid" "class"
       "latency" "syscall" "reload" "htab" "ctxsw" "run");
  List.iter
    (fun (r : Span.request) ->
      Buffer.add_string b
        (Printf.sprintf "%-5d %-18s %10d %10d %9d %9d %8d %9d\n"
           r.Span.q_rid
           (Span.class_name sp r.Span.q_cls)
           r.Span.q_latency r.Span.q_syscall_cost r.Span.q_reload_cost
           r.Span.q_htab_cost r.Span.q_ctxsw_cost r.Span.q_run_cost))
    (Span.slowest sp ~top);
  Buffer.contents b

let summary sp =
  let h = Span.hist_latency sp in
  Printf.sprintf
    "%s: %d requests (%d completed), latency cycles p50=%d p99=%d p999=%d \
     max=%d\n"
    (Span.label sp) (Span.requests sp) (Span.completed sp)
    (Hist.percentile h 0.50) (Hist.percentile h 0.99)
    (Hist.percentile h 0.999) (Hist.max_value h)
