open Cli
open Cmdliner

(* latest view and its predecessor, for the rate metrics *)
let last_two views =
  match List.rev views with
  | [] -> None
  | [ v ] -> Some (None, v)
  | v :: p :: _ -> Some (Some p, v)

let watch_row tl =
  let metric name =
    match last_two tl.Flight.tl_views with
    | None -> "-"
    | Some (prev, v) -> (
        match Flight.compute name ~prev v with
        | Some x -> fmt_metric x
        | None -> "-")
  in
  let cycle =
    match last_two tl.Flight.tl_views with
    | Some (_, v) -> Report.fmt_int v.Flight.v_cycle
    | None -> "-"
  in
  [ string_of_int tl.Flight.tl_run;
    (if tl.Flight.tl_label = "" then "-" else tl.Flight.tl_label);
    string_of_int (List.length tl.Flight.tl_views);
    cycle;
    metric "tlb_miss_rate";
    metric "htab_occupancy_pct";
    metric "idle_fraction";
    metric "runq_imbalance";
    metric "span_p99_cycles";
    string_of_int (List.length tl.Flight.tl_incidents)
    ^ (if tl.Flight.tl_ended then " (done)" else "") ]

(* One frame: [None] when there is no timeline to show yet (the file is
   missing or holds no timeline line), else whether every run in it has
   ended. *)
let watch_render file =
  match Flight.read_file file with
  | Error m ->
      Printf.printf "waiting for %s (%s)\n" file m;
      None
  | Ok [] ->
      Printf.printf "waiting for %s (no timeline lines yet)\n" file;
      None
  | Ok tls ->
      Report.table
        ~header:
          [ "run"; "label"; "samples"; "cycle"; "tlbmiss/1k"; "htab %";
            "idle frac"; "runq skew"; "p99 cyc"; "incidents" ]
        ~rows:(List.map watch_row tls);
      let incs = List.concat_map (fun tl -> tl.Flight.tl_incidents) tls in
      let tail =
        let n = List.length incs in
        if n <= 5 then incs
        else List.filteri (fun i _ -> i >= n - 5) incs
      in
      if tail <> [] then begin
        Printf.printf "\nlatest incidents:\n";
        List.iter
          (fun i -> Printf.printf "  %s\n" (Flight.describe_incident i))
          tail
      end;
      Some (List.for_all (fun tl -> tl.Flight.tl_ended) tls)

let run file interval once =
  if interval <= 0. then Error (`Msg "--interval must be positive")
  else if once then
    match watch_render file with
    | Some _ -> Ok ()
    | None -> fail ("no timeline in " ^ file)
  else begin
    let rec loop () =
      print_string "\027[2J\027[H";
      Printf.printf "mmu_sim watch: %s (ctrl-c to stop)\n\n" file;
      let finished = watch_render file = Some true in
      flush stdout;
      if finished then begin
        Printf.printf "\nall runs ended.\n";
        Ok ()
      end
      else begin
        Unix.sleepf interval;
        loop ()
      end
    in
    loop ()
  end

let cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TIMELINE"
          ~doc:"Timeline JSONL file being written by \
                $(b,experiment --record).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period between dashboard frames.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render one frame from the file's current contents and \
                exit (no screen clearing; scriptable).  Exits 1 \
                when the file is missing or holds no timeline line.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Live terminal dashboard over a streaming flight-recorder \
             timeline."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Tails the JSONL timeline a one-job \
              $(b,experiment --record) run streams to disk, \
              re-integrating the deltas each frame into a per-run \
              dashboard: sample counts, current cycle, TLB \
              miss rate, htab occupancy, idle fraction, run-queue skew, \
              p99-so-far and fired incidents. Exits when every run in the \
              file has written its end record." ])
    Term.(term_result (const run $ file $ interval $ once))
