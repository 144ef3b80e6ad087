(* Exporters for Ppc.Trace: Chrome trace-event JSON, timeline/histogram
   JSON, and a text summary.  Pure functions of a finished trace — no
   emission paths live here. *)

open Ppc

let span_kind = function
  | Trace.Tlb_reload | Trace.Context_switch | Trace.Run_slice
  | Trace.Idle_window ->
      true
  | _ -> false

let hex n = Printf.sprintf "0x%08x" n

(* Event-specific argument object, decoding the a/b payload. *)
let args_of (e : Trace.event) =
  match e.Trace.e_kind with
  | Trace.Itlb_miss | Trace.Dtlb_miss -> [ ("ea", Json.String (hex e.e_a)) ]
  | Trace.Tlb_reload ->
      [ ("ea", Json.String (hex e.e_a)); ("cycles", Json.Int e.e_b) ]
  | Trace.Tlb_evict ->
      [ ("victim_vpn", Json.String (hex e.e_a));
        ("victim_vsid", Json.Int e.e_b) ]
  | Trace.Htab_probe ->
      [ ("slots_examined", Json.Int e.e_a);
        ("hit", Json.Bool (e.e_b = 1)) ]
  | Trace.Htab_evict ->
      [ ("victim_vsid", Json.Int e.e_a);
        ("victim_live", Json.Bool (e.e_b = 1)) ]
  | Trace.Bat_hit -> [ ("ea", Json.String (hex e.e_a)) ]
  | Trace.Context_switch ->
      [ ("pid", Json.Int e.e_a); ("cycles", Json.Int e.e_b) ]
  | Trace.Run_slice | Trace.Idle_window -> [ ("cycles", Json.Int e.e_b) ]
  | Trace.Flush_page ->
      [ ("ea", Json.String (hex e.e_a)); ("vsid", Json.Int e.e_b) ]
  | Trace.Flush_context ->
      [ ("old_ctx", Json.Int e.e_a); ("new_ctx", Json.Int e.e_b) ]
  | Trace.Page_fault ->
      [ ("ea", Json.String (hex e.e_a));
        ("access",
         Json.String
           (match e.e_b with 0 -> "fetch" | 1 -> "load" | _ -> "store")) ]
  | Trace.Idle_prezero ->
      [ ("rpn", Json.Int e.e_a); ("kept", Json.Bool (e.e_b = 1)) ]
  | Trace.Idle_reclaim ->
      [ ("reclaimed", Json.Int e.e_a); ("slots_scanned", Json.Int e.e_b) ]
  | Trace.Vma_map | Trace.Vma_unmap ->
      [ ("start", Json.String (hex e.e_a)); ("pages", Json.Int e.e_b) ]

(* Counter timelines exported to Chrome counter tracks: per-interval
   deltas of the counters whose rates are worth eyeballing. *)
let counter_tracks =
  [ ("tlb_misses", [ "itlb_misses"; "dtlb_misses" ]);
    ("htab", [ "htab_hits"; "htab_misses" ]);
    ("cache_misses", [ "icache_misses"; "dcache_misses" ]);
    ("page_faults", [ "page_faults" ]);
    ("idle_cycles", [ "idle_cycles" ]) ]

let to_chrome ?(mhz = 100) ?(name = "mmu_sim") tr =
  (* One thread per PID seen in the ring; tid 0 is the kernel/idle task. *)
  let pids = Hashtbl.create 16 in
  Trace.iter tr (fun e -> Hashtbl.replace pids e.Trace.e_pid ());
  Hashtbl.replace pids 0 ();
  let thread_names =
    Hashtbl.fold
      (fun pid () acc ->
        Perfetto.thread_name ~pid:1 ~tid:pid
          (if pid = 0 then "kernel/idle" else Printf.sprintf "task %d" pid)
        :: acc)
      pids []
  in
  let events = ref [] in
  Trace.iter tr (fun e ->
      let kind = Trace.kind_name e.Trace.e_kind and tid = e.Trace.e_pid in
      let ev =
        if span_kind e.Trace.e_kind then
          (* spans are emitted at completion; the start is cycle - dur *)
          Perfetto.slice ~mhz ~cat:"mmu" ~name:kind ~pid:1 ~tid
            ~start:(e.Trace.e_cycle - e.Trace.e_b) ~cycles:e.Trace.e_b
            (Json.Obj (args_of e))
        else
          Perfetto.instant ~mhz ~cat:"mmu" ~name:kind ~pid:1 ~tid
            ~scope:`Thread e.Trace.e_cycle (Json.Obj (args_of e))
      in
      events := ev :: !events);
  (* Counter tracks from the timeline samples: each sample contributes
     the delta since the previous sample, so the track reads as a rate. *)
  let counters = ref [] in
  (match Trace.samples tr with
  | [] -> ()
  | first :: _ as samples ->
      let prev = ref (snd first) in
      let prev_cycle = ref (fst first) in
      List.iteri
        (fun i (cycle, snap) ->
          if i > 0 then begin
            let d = Perf.diff ~after:snap ~before:!prev in
            let fields = Perf.fields d in
            let value name = try List.assoc name fields with Not_found -> 0 in
            List.iter
              (fun (track, series) ->
                counters :=
                  Perfetto.counter ~mhz ~name:track ~pid:1 !prev_cycle
                    (Json.Obj
                       (List.map (fun s -> (s, Json.Int (value s))) series))
                  :: !counters)
              counter_tracks;
            prev := snap;
            prev_cycle := cycle
          end)
        samples);
  Perfetto.document
    ((Perfetto.process_name ~pid:1 name :: thread_names)
    @ List.rev !events @ List.rev !counters)

(* --- machine-readable distributions ---------------------------------- *)

let hist_to_json h =
  Json.Obj
    [ ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("max", Json.Int (Hist.max_value h));
      ("mean", Json.Float (Hist.mean h));
      ("p50", Json.Int (Hist.percentile h 0.50));
      ("p90", Json.Int (Hist.percentile h 0.90));
      ("p99", Json.Int (Hist.percentile h 0.99));
      ("buckets",
       Json.List
         (List.map
            (fun (lo, hi, n) ->
              Json.List [ Json.Int lo; Json.Int hi; Json.Int n ])
            (Hist.buckets h))) ]

let timeline_to_json tr =
  match Trace.samples tr with
  | [] -> Json.Null
  | samples ->
      let field_names = List.map fst (Perf.fields (snd (List.hd samples))) in
      Json.Obj
        [ ("fields",
           Json.List
             (Json.String "cycle"
             :: List.map (fun n -> Json.String n) field_names));
          ("samples",
           Json.List
             (List.map
                (fun (cycle, snap) ->
                  Json.List
                    (Json.Int cycle
                    :: List.map (fun (_, v) -> Json.Int v) (Perf.fields snap)))
                samples)) ]

(* The per-run observability document embedded in experiment results:
   merged histograms and event counts over every kernel the run booted,
   plus one timeline per kernel that sampled, when asked for. *)
let observability_json ~timelines traces =
  let probe = Hist.create () in
  let tlb = Hist.create () in
  let ctxsw = Hist.create () in
  let counts = Array.make (List.length Trace.all_kinds) 0 in
  List.iter
    (fun tr ->
      Hist.merge_into ~into:probe (Trace.hist_probe tr);
      Hist.merge_into ~into:tlb (Trace.hist_tlb_service tr);
      Hist.merge_into ~into:ctxsw (Trace.hist_ctxsw tr);
      List.iteri
        (fun i k -> counts.(i) <- counts.(i) + Trace.kind_count tr k)
        Trace.all_kinds)
    traces;
  let events =
    Json.Obj
      (List.filteri
         (fun i _ -> counts.(i) <> 0)
         (List.mapi
            (fun i k -> (Trace.kind_name k, Json.Int counts.(i)))
            Trace.all_kinds))
  in
  let timelines =
    if not timelines then []
    else
      List.filter_map
        (fun tr ->
          match timeline_to_json tr with Json.Null -> None | j -> Some j)
        traces
  in
  Json.Obj
    [ ("events", events);
      ("histograms",
       Json.Obj
         [ ("htab_probe_len", hist_to_json probe);
           ("tlb_service_cycles", hist_to_json tlb);
           ("context_switch_cycles", hist_to_json ctxsw) ]);
      ("timelines", Json.List timelines) ]

(* --- text summary ----------------------------------------------------- *)

let bar n max_n width =
  if max_n <= 0 then ""
  else String.make (max 0 (n * width / max_n)) '#'

let summary_hist buf name h =
  if not (Hist.is_empty h) then begin
    (* interpolated percentiles: bucket upper bounds overstate skewed
       distributions by up to a power of two *)
    Buffer.add_string buf
      (Printf.sprintf
         "  %s: n=%d mean=%.1f p50~%.1f p90~%.1f p99~%.1f max=%d\n"
         name (Hist.count h) (Hist.mean h)
         (Hist.percentile_interpolated h 0.50)
         (Hist.percentile_interpolated h 0.90)
         (Hist.percentile_interpolated h 0.99)
         (Hist.max_value h));
    let buckets = Hist.buckets h in
    let biggest =
      List.fold_left (fun m (_, _, n) -> max m n) 0 buckets
    in
    List.iter
      (fun (lo, hi, n) ->
        Buffer.add_string buf
          (Printf.sprintf "    %10d..%-10d %8d %s\n" lo hi n
             (bar n biggest 40)))
      buckets
  end

let summary tr =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d events recorded (%d retained, %d dropped)\n"
       (Trace.total tr) (Trace.length tr) (Trace.dropped tr));
  let counted =
    List.filter_map
      (fun k ->
        let n = Trace.kind_count tr k in
        if n = 0 then None else Some (k, n))
      Trace.all_kinds
  in
  let biggest = List.fold_left (fun m (_, n) -> max m n) 0 counted in
  List.iter
    (fun (k, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %10d %s\n" (Trace.kind_name k) n
           (bar n biggest 40)))
    counted;
  Buffer.add_string buf "distributions (cycles unless noted):\n";
  summary_hist buf "htab probe length (PTE slots)" (Trace.hist_probe tr);
  summary_hist buf "tlb-miss service" (Trace.hist_tlb_service tr);
  summary_hist buf "context switch" (Trace.hist_ctxsw tr);
  (match Trace.samples tr with
  | [] -> ()
  | samples ->
      Buffer.add_string buf
        (Printf.sprintf "timeline: %d samples\n" (List.length samples)));
  Buffer.contents buf
