open Ppc

(* ------------------------------------------------------------- views *)

type view = {
  v_cycle : int;
  v_perf : (string * int) list;
  v_gauges : (string * int array) list;
}

let view_of_sample (s : Recorder.sample) =
  { v_cycle = s.Recorder.s_cycle;
    v_perf = Perf.fields s.Recorder.s_perf;
    v_gauges = s.Recorder.s_gauges }

let pfield v name =
  match List.assoc_opt name v.v_perf with Some x -> x | None -> 0

let gauge v name = List.assoc_opt name v.v_gauges

(* ----------------------------------------------------------- metrics *)

type metric = {
  m_name : string;
  m_doc : string;
  m_fn : prev:view option -> view -> float option;
}

let d ~prev cur name =
  match prev with
  | None -> None
  | Some p -> Some (pfield cur name - pfield p name)

let d2 ~prev cur a b =
  match (d ~prev cur a, d ~prev cur b) with
  | Some x, Some y -> Some (x + y)
  | _ -> None

let per ?(scale = 1.) num den =
  match (num, den) with
  | Some n, Some dn ->
      if dn <= 0 then Some 0.
      else Some (scale *. float_of_int n /. float_of_int dn)
  | _ -> None

let metrics =
  [ { m_name = "tlb_miss_rate";
      m_doc = "TLB misses per 1k lookups over the sample interval";
      m_fn =
        (fun ~prev cur ->
          per ~scale:1000.
            (d2 ~prev cur "itlb_misses" "dtlb_misses")
            (d2 ~prev cur "itlb_lookups" "dtlb_lookups")) };
    { m_name = "idle_fraction";
      m_doc = "idle cycles / cycles over the sample interval";
      m_fn =
        (fun ~prev cur ->
          per (d ~prev cur "idle_cycles") (d ~prev cur "cycles")) };
    { m_name = "vsid_wrap_delta";
      m_doc = "context-counter wraps in the sample interval";
      m_fn =
        (fun ~prev cur ->
          match d ~prev cur "vsid_wraps" with
          | Some x -> Some (float_of_int x)
          | None -> None) };
    { m_name = "ctxsw_per_mcycle";
      m_doc = "context switches per million cycles over the interval";
      m_fn =
        (fun ~prev cur ->
          per ~scale:1_000_000.
            (d ~prev cur "context_switches")
            (d ~prev cur "cycles")) };
    { m_name = "pteg_max_chain";
      m_doc = "longest PTEG collision chain right now (0..8)";
      m_fn =
        (fun ~prev:_ cur ->
          match gauge cur "htab_chains" with
          | None -> None
          | Some h ->
              let best = ref 0 in
              Array.iteri (fun k n -> if n > 0 then best := k) h;
              Some (float_of_int !best)) };
    { m_name = "htab_occupancy_pct";
      m_doc = "valid PTEs as % of htab capacity right now";
      m_fn =
        (fun ~prev:_ cur ->
          match gauge cur "htab" with
          | Some [| occ; cap; _ |] when cap > 0 ->
              Some (100. *. float_of_int occ /. float_of_int cap)
          | _ -> None) };
    { m_name = "htab_zombie_pct";
      m_doc = "zombie PTEs as % of valid PTEs right now";
      m_fn =
        (fun ~prev:_ cur ->
          match gauge cur "htab" with
          | Some [| occ; _; zombie |] when occ > 0 ->
              Some (100. *. float_of_int zombie /. float_of_int occ)
          | _ -> None) };
    { m_name = "runq_imbalance";
      m_doc = "max - min run-queue depth across CPUs right now";
      m_fn =
        (fun ~prev:_ cur ->
          match gauge cur "runq" with
          | Some q when Array.length q > 0 ->
              let mx = Array.fold_left max q.(0) q in
              let mn = Array.fold_left min q.(0) q in
              Some (float_of_int (mx - mn))
          | _ -> None) };
    { m_name = "span_p99_cycles";
      m_doc = "p99 request latency so far (cycles), when spans are armed";
      m_fn =
        (fun ~prev:_ cur ->
          match gauge cur "span" with
          | Some [| completed; _; p99 |] when completed > 0 ->
              Some (float_of_int p99)
          | _ -> None) } ]

let metric_names = List.map (fun m -> m.m_name) metrics
let metric_doc name =
  match List.find_opt (fun m -> m.m_name = name) metrics with
  | Some m -> Some m.m_doc
  | None -> None

let compute name ~prev cur =
  match List.find_opt (fun m -> m.m_name = name) metrics with
  | Some m -> m.m_fn ~prev cur
  | None -> None

(* ------------------------------------------------------------- rules *)

type trigger =
  | Above of float
  | Below of float
  | Step of float
  | Drop of float

type rule = {
  rl_id : string;
  rl_metric : string;
  rl_trigger : trigger;
  rl_window : int;
  rl_cooldown : int;
}

let trigger_text = function
  | Above v -> Printf.sprintf "> %g" v
  | Below v -> Printf.sprintf "< %g" v
  | Step f -> Printf.sprintf "step x%g" f
  | Drop f -> Printf.sprintf "drop /%g" f

let rule ?(window = 8) ?(cooldown = 8) id metric trigger =
  if window < 1 then invalid_arg "Flight.rule: window must be >= 1";
  if cooldown < 0 then invalid_arg "Flight.rule: cooldown must be >= 0";
  if not (List.mem metric metric_names) then
    invalid_arg
      (Printf.sprintf "Flight.rule %s: unknown metric %S (know: %s)" id metric
         (String.concat ", " metric_names));
  { rl_id = id;
    rl_metric = metric;
    rl_trigger = trigger;
    rl_window = window;
    rl_cooldown = cooldown }

let default_rules =
  [ rule "htab-chain-spike" "pteg_max_chain" (Above 7.5);
    rule ~window:32 ~cooldown:64 "tlb-miss-step" "tlb_miss_rate" (Step 6.);
    rule "vsid-wrap-burst" "vsid_wrap_delta" (Above 0.5);
    rule "runq-imbalance" "runq_imbalance" (Above 12.5);
    rule ~window:16 ~cooldown:64 "idle-collapse" "idle_fraction" (Drop 20.) ]

let rule_to_json r =
  let trig =
    match r.rl_trigger with
    | Above v -> ("above", Json.Float v)
    | Below v -> ("below", Json.Float v)
    | Step f -> ("step", Json.Float f)
    | Drop f -> ("drop", Json.Float f)
  in
  Json.Obj
    [ ("id", Json.String r.rl_id);
      ("metric", Json.String r.rl_metric);
      trig;
      ("window", Json.Int r.rl_window);
      ("cooldown", Json.Int r.rl_cooldown) ]

let rules_to_json rules =
  Json.Obj [ ("rules", Json.List (List.map rule_to_json rules)) ]

let rule_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let num k = Option.bind (Json.member k j) Json.to_float_opt in
  let int_def k dflt =
    match Option.bind (Json.member k j) Json.to_int_opt with
    | Some n -> n
    | None -> dflt
  in
  match str "id" with
  | None -> Error "rule without an \"id\""
  | Some id -> (
      match str "metric" with
      | None -> Error (Printf.sprintf "rule %s: missing \"metric\"" id)
      | Some metric -> (
          let triggers =
            List.filter_map
              (fun (k, mk) ->
                match num k with Some v -> Some (mk v) | None -> None)
              [ ("above", fun v -> Above v);
                ("below", fun v -> Below v);
                ("step", fun v -> Step v);
                ("drop", fun v -> Drop v) ]
          in
          match triggers with
          | [ trigger ] -> (
              try
                Ok
                  (rule ~window:(int_def "window" 8)
                     ~cooldown:(int_def "cooldown" 8) id metric trigger)
              with Invalid_argument m -> Error m)
          | [] ->
              Error
                (Printf.sprintf
                   "rule %s: needs exactly one of above/below/step/drop" id)
          | _ ->
              Error
                (Printf.sprintf
                   "rule %s: more than one of above/below/step/drop" id)))

let rules_of_json j =
  match Option.bind (Json.member "rules" j) Json.to_list_opt with
  | None -> Error "expected {\"rules\": [...]}"
  | Some l ->
      let rec walk acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
            match rule_of_json r with
            | Ok r -> walk (r :: acc) rest
            | Error _ as e -> e)
      in
      walk [] l

let load_rules path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | body -> (
      match Json.of_string body with
      | Error m -> Error (Printf.sprintf "%s: %s" path m)
      | Ok j -> rules_of_json j)

(* --------------------------------------------------------- incidents *)

type incident = {
  i_run : int;
  i_label : string;
  i_cycle : int;
  i_rule : string;
  i_metric : string;
  i_value : float;
  i_trigger : string;
  i_attr : (int * int * int * int * int) list;
}

(* the "attribution" gauge is the profiler's top accounts flattened at
   stride 5 (pid, seg, kind, count, cost); empty unless --profile armed *)
let attr_of_view v =
  match gauge v "attribution" with
  | None -> []
  | Some a ->
      let rows = Array.length a / 5 in
      List.init rows (fun i ->
          let b = i * 5 in
          (a.(b), a.(b + 1), a.(b + 2), a.(b + 3), a.(b + 4)))

let incident_json i =
  Json.Obj
    [ ("t", Json.String "i");
      ("run", Json.Int i.i_run);
      ("label", Json.String i.i_label);
      ("c", Json.Int i.i_cycle);
      ("rule", Json.String i.i_rule);
      ("metric", Json.String i.i_metric);
      ("value", Json.Float i.i_value);
      ("trigger", Json.String i.i_trigger);
      ("attr",
       Json.List
         (List.map
            (fun (pid, seg, kind, count, cost) ->
              Json.List
                [ Json.Int pid; Json.Int seg; Json.Int kind; Json.Int count;
                  Json.Int cost ])
            i.i_attr)) ]

let incident_of_json j =
  let str k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_string_opt) in
  let int k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_int_opt) in
  let attr =
    match Option.bind (Json.member "attr" j) Json.to_list_opt with
    | None -> []
    | Some l ->
        List.filter_map
          (fun row ->
            match Json.to_list_opt row with
            | Some [ a; b; c; d; e ] -> (
                match List.map Json.to_int_opt [ a; b; c; d; e ] with
                | [ Some a; Some b; Some c; Some d; Some e ] ->
                    Some (a, b, c, d, e)
                | _ -> None)
            | _ -> None)
          l
  in
  { i_run = int "run" 0;
    i_label = str "label" "";
    i_cycle = int "c" 0;
    i_rule = str "rule" "?";
    i_metric = str "metric" "?";
    i_value =
      Option.value ~default:0.
        (Option.bind (Json.member "value" j) Json.to_float_opt);
    i_trigger = str "trigger" "";
    i_attr = attr }

let describe_incident i =
  Printf.sprintf "[%s] %s at cycle %d: %s = %g (%s)"
    (if i.i_label = "" then string_of_int i.i_run else i.i_label)
    i.i_rule i.i_cycle i.i_metric i.i_value i.i_trigger

(* ---------------------------------------------------------- detector *)

type dcell = {
  dc_rule : rule;
  mutable dc_window : float list; (* newest first, at most rl_window *)
  mutable dc_cooldown : int;
}

type detector = dcell list

let detector rules =
  List.map (fun r -> { dc_rule = r; dc_window = []; dc_cooldown = 0 }) rules

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let detector_step det ~run ~label ~prev cur =
  List.filter_map
    (fun dc ->
      let r = dc.dc_rule in
      match compute r.rl_metric ~prev cur with
      | None -> None
      | Some x ->
          let warm = List.length dc.dc_window >= r.rl_window in
          let fired =
            if dc.dc_cooldown > 0 then begin
              dc.dc_cooldown <- dc.dc_cooldown - 1;
              false
            end
            else
              match r.rl_trigger with
              | Above th -> x > th
              | Below th -> warm && x < th
              | Step f ->
                  warm
                  &&
                  let m = mean dc.dc_window in
                  m > 0. && x > f *. m
              | Drop f ->
                  warm
                  &&
                  let m = mean dc.dc_window in
                  m > 0. && x < m /. f
          in
          (* the trailing window never includes the current sample, so a
             Step baseline is what came before the spike *)
          dc.dc_window <- take r.rl_window (x :: dc.dc_window);
          if not fired then None
          else begin
            dc.dc_cooldown <- r.rl_cooldown;
            Some
              { i_run = run;
                i_label = label;
                i_cycle = cur.v_cycle;
                i_rule = r.rl_id;
                i_metric = r.rl_metric;
                i_value = x;
                i_trigger = trigger_text r.rl_trigger;
                i_attr = attr_of_view cur }
          end)
    det

(* ---------------------------------------------------- line encoding *)

let zero_perf = Perf.fields (Perf.create ())

let changed_perf last cur =
  match last with
  | None -> List.filter (fun (_, v) -> v <> 0) cur.v_perf
  | Some p ->
      List.filter (fun (k, v) -> pfield p k <> v) cur.v_perf

let changed_gauges last cur =
  match last with
  | None -> cur.v_gauges
  | Some p ->
      List.filter
        (fun (k, a) ->
          match gauge p k with Some b -> a <> b | None -> true)
        cur.v_gauges

let begin_json ~run ~label ~every =
  Json.Obj
    [ ("t", Json.String "begin");
      ("run", Json.Int run);
      ("label", Json.String label);
      ("every", Json.Int every) ]

let sample_json ~run ?label ~last cur =
  let p = changed_perf last cur in
  let g = changed_gauges last cur in
  Json.Obj
    (List.concat
       [ [ ("t", Json.String "s"); ("run", Json.Int run);
           ("c", Json.Int cur.v_cycle) ];
         (match label with Some l -> [ ("label", Json.String l) ] | None -> []);
         (if p = [] then []
          else [ ("p", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) p)) ]);
         (if g = [] then []
          else
            [ ("g",
               Json.Obj
                 (List.map
                    (fun (k, a) ->
                      (k,
                       Json.List
                         (Array.to_list (Array.map (fun x -> Json.Int x) a))))
                    g)) ]) ])

let end_json ~run rcd =
  Json.Obj
    [ ("t", Json.String "end");
      ("run", Json.Int run);
      ("label", Json.String (Recorder.label rcd));
      ("c", Json.Int rcd.Recorder.perf.Perf.cycles);
      ("samples", Json.Int (Recorder.total rcd));
      ("retained", Json.Int (Recorder.length rcd));
      ("every", Json.Int (Recorder.every rcd)) ]

(* ------------------------------------------------------------ decode *)

type timeline = {
  tl_run : int;
  tl_label : string;
  tl_every : int;
  tl_final_every : int;
  tl_total : int;
  tl_ended : bool;
  tl_views : view list;
  tl_incidents : incident list;
}

type open_run = {
  o_run : int;
  mutable o_label : string;
  o_every : int;
  mutable o_final_every : int;
  mutable o_total : int; (* -1 until an end line arrives *)
  mutable o_perf : (string * int) list;
  mutable o_gauges : (string * int array) list;
  mutable o_views_rev : view list;
  mutable o_incidents_rev : incident list;
}

let close_run o =
  let streamed = List.length o.o_views_rev in
  { tl_run = o.o_run;
    tl_label = o.o_label;
    tl_every = o.o_every;
    tl_final_every = o.o_final_every;
    tl_total = (if o.o_total >= 0 then o.o_total else streamed);
    tl_ended = o.o_total >= 0;
    tl_views = List.rev o.o_views_rev;
    tl_incidents = List.rev o.o_incidents_rev }

let decode_lines lines =
  let opens = ref [] (* newest first *) in
  let finished_rev = ref [] in
  let find run = List.assoc_opt run !opens in
  let close run =
    match find run with
    | None -> ()
    | Some o ->
        finished_rev := close_run o :: !finished_rev;
        opens := List.remove_assoc run !opens
  in
  let err ln msg = Error (Printf.sprintf "line %d: %s" ln msg) in
  let rec walk ln = function
    | [] ->
        (* runs the stream never closed (a crashed or still-running
           producer) are returned with what was streamed so far *)
        List.iter (fun (_, o) -> finished_rev := close_run o :: !finished_rev)
          (List.rev !opens);
        Ok (List.rev !finished_rev)
    | line :: rest when String.trim line = "" -> walk (ln + 1) rest
    | line :: rest -> (
        match Json.of_string line with
        | Error m -> err ln m
        | Ok j -> (
            let str k = Option.bind (Json.member k j) Json.to_string_opt in
            let int k = Option.bind (Json.member k j) Json.to_int_opt in
            match str "t" with
            | Some "begin" -> (
                match int "run" with
                | None -> err ln "begin without \"run\""
                | Some run ->
                    close run;
                    let every = Option.value ~default:0 (int "every") in
                    opens :=
                      (run,
                       { o_run = run;
                         o_label = Option.value ~default:"" (str "label");
                         o_every = every;
                         o_final_every = every;
                         o_total = -1;
                         o_perf = zero_perf;
                         o_gauges = [];
                         o_views_rev = [];
                         o_incidents_rev = [] })
                      :: !opens;
                    walk (ln + 1) rest)
            | Some "s" -> (
                match Option.bind (int "run") find with
                | None -> err ln "sample for a run with no begin"
                | Some o ->
                    (match str "label" with
                    | Some l -> o.o_label <- l
                    | None -> ());
                    (match Json.member "p" j with
                    | Some (Json.Obj changes) ->
                        o.o_perf <-
                          List.map
                            (fun (k, v) ->
                              match List.assoc_opt k changes with
                              | Some (Json.Int n) -> (k, n)
                              | _ -> (k, v))
                            o.o_perf
                    | _ -> ());
                    (match Json.member "g" j with
                    | Some (Json.Obj changes) ->
                        List.iter
                          (fun (k, v) ->
                            match Json.to_list_opt v with
                            | None -> ()
                            | Some l ->
                                let a =
                                  Array.of_list
                                    (List.map
                                       (fun x ->
                                         Option.value ~default:0
                                           (Json.to_int_opt x))
                                       l)
                                in
                                if List.mem_assoc k o.o_gauges then
                                  o.o_gauges <-
                                    List.map
                                      (fun (k', a') ->
                                        if k' = k then (k, a) else (k', a'))
                                      o.o_gauges
                                else o.o_gauges <- o.o_gauges @ [ (k, a) ])
                          changes
                    | _ -> ());
                    o.o_views_rev <-
                      { v_cycle = Option.value ~default:0 (int "c");
                        v_perf = o.o_perf;
                        v_gauges = o.o_gauges }
                      :: o.o_views_rev;
                    walk (ln + 1) rest)
            | Some "i" -> (
                match Option.bind (int "run") find with
                | None -> err ln "incident for a run with no begin"
                | Some o ->
                    o.o_incidents_rev <-
                      incident_of_json j :: o.o_incidents_rev;
                    walk (ln + 1) rest)
            | Some "end" -> (
                match Option.bind (int "run") find with
                | None -> err ln "end for a run with no begin"
                | Some o ->
                    (match str "label" with
                    | Some l -> o.o_label <- l
                    | None -> ());
                    (match int "samples" with
                    | Some n -> o.o_total <- n
                    | None -> ());
                    (match int "every" with
                    | Some n -> o.o_final_every <- n
                    | None -> ());
                    close o.o_run;
                    walk (ln + 1) rest)
            | Some other -> err ln (Printf.sprintf "unknown record %S" other)
            | None -> err ln "record without a \"t\" tag"))
  in
  walk 1 lines

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_file path =
  match read_lines path with
  | exception Sys_error m -> Error m
  | lines -> decode_lines lines

(* batch detection over a decoded timeline (replay --detect) *)
let detect ?(rules = default_rules) tl =
  let det = detector rules in
  let _, incidents_rev =
    List.fold_left
      (fun (prev, acc) v ->
        let incs =
          detector_step det ~run:tl.tl_run ~label:tl.tl_label ~prev v
        in
        (Some v, List.rev_append incs acc))
      (None, []) tl.tl_views
  in
  List.rev incidents_rev

(* metric time series, for the replay tables and the Perfetto export *)
let series tl =
  List.filter_map
    (fun m ->
      let _, pts_rev =
        List.fold_left
          (fun (prev, acc) v ->
            match m.m_fn ~prev v with
            | Some x -> (Some v, (v.v_cycle, x) :: acc)
            | None -> (Some v, acc))
          (None, []) tl.tl_views
      in
      match pts_rev with [] -> None | l -> Some (m.m_name, List.rev l))
    metrics

(* ------------------------------------------------------------- sink *)

type sstate = {
  ss_run : int;
  mutable ss_last : view option;
  mutable ss_label : string;
  ss_det : detector;
}

(* Runs are numbered by the sink, in attach order: the order their
   "begin" lines reach the stream. *)
type sink = {
  sk_rules : rule list;
  sk_write : string -> unit;
  mutable sk_runs : int;
  mutable sk_open : (Recorder.t * sstate) list;  (* attached, not finished *)
  mutable sk_incidents_rev : incident list;
}

let sink ?(rules = default_rules) ~write () =
  { sk_rules = rules;
    sk_write = write;
    sk_runs = 0;
    sk_open = [];
    sk_incidents_rev = [] }

let emit sk j = sk.sk_write (Json.to_string ~compact:true j)

let on_sample sk st rcd (s : Recorder.sample) =
  let run = st.ss_run in
  let v = view_of_sample s in
  let label = Recorder.label rcd in
  let label_opt = if label = st.ss_label then None else Some label in
  emit sk (sample_json ~run ?label:label_opt ~last:st.ss_last v);
  st.ss_label <- label;
  let incs = detector_step st.ss_det ~run ~label ~prev:st.ss_last v in
  List.iter
    (fun i ->
      emit sk (incident_json i);
      sk.sk_incidents_rev <- i :: sk.sk_incidents_rev)
    incs;
  st.ss_last <- Some v

let attach sk rcd =
  sk.sk_runs <- sk.sk_runs + 1;
  let st =
    { ss_run = sk.sk_runs;
      ss_last = None;
      ss_label = Recorder.label rcd;
      ss_det = detector sk.sk_rules }
  in
  sk.sk_open <- (rcd, st) :: sk.sk_open;
  emit sk
    (begin_json ~run:st.ss_run ~label:st.ss_label ~every:(Recorder.every rcd));
  Recorder.set_on_sample rcd (fun r s -> on_sample sk st r s)

let finish sk rcd =
  emit sk (end_json ~run:(List.assq rcd sk.sk_open).ss_run rcd);
  sk.sk_open <- List.remove_assq rcd sk.sk_open

let incidents sk = List.rev sk.sk_incidents_rev

(* ---------------------------------------------------------- Perfetto *)

let to_chrome ?(mhz = 100) ?(name = "mmu_sim flight") tls =
  let process pi tl =
    let pid = pi + 1 in
    let pname =
      if tl.tl_label = "" then Printf.sprintf "run %d" tl.tl_run
      else tl.tl_label
    in
    let counters (metric, points) =
      List.map
        (fun (cycle, value) ->
          Perfetto.counter ~mhz ~name:metric ~pid cycle
            (Json.Obj [ ("value", Json.Float value) ]))
        points
    in
    let incident i =
      Perfetto.instant ~mhz ~cat:"incident" ~name:i.i_rule ~pid ~tid:0
        ~scope:`Process i.i_cycle
        (Json.Obj
           [ ("metric", Json.String i.i_metric);
             ("value", Json.Float i.i_value);
             ("trigger", Json.String i.i_trigger) ])
    in
    (Perfetto.process_name ~pid (name ^ ": " ^ pname)
    :: List.concat_map counters (series tl))
    @ List.map incident tl.tl_incidents
  in
  Perfetto.document (List.concat (List.mapi process tls))
