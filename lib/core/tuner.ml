(* The parallel policy auto-tuner: fan candidate policies through the
   fault-tolerant Runner, score each on canonical workloads, and keep
   the Pareto front.  This is the paper's §5.2 "adjust the constant
   until hot-spots disappeared" methodology generalized to every knob
   the policy layer exposes. *)

open Ppc

(* --- generic fan-out through the Runner ------------------------------- *)

(* Each task runs in whatever process hosts the attempt; the payload is
   stashed in this process-local slot and the collect hook drains it, so
   it rides the Runner's result pipe back to the supervisor.  That is
   what keeps [--jobs N] byte-identical to a serial run: the data never
   dies with a forked worker. *)
let pending : Json.t option ref = ref None

let blank_table id =
  { Experiments.title = id; header = []; rows = []; notes = [] }

let fan_out ?jobs ?seed ?timeout ?retries tasks =
  let jobs_list =
    List.map
      (fun (id, compute) ->
        ( id,
          fun ?seed () ->
            pending := Some (compute ?seed ());
            blank_table id ))
      tasks
  in
  let saved = !Runner.collect_hook in
  (Runner.collect_hook :=
     fun _ ->
       let v = !pending in
       pending := None;
       v);
  Fun.protect
    ~finally:(fun () -> Runner.collect_hook := saved)
    (fun () ->
      List.map
        (fun (id, outcome, payload) ->
          match payload with
          | Some j -> (id, Ok j)
          | None ->
              let why =
                match outcome with
                | Runner.Done _ -> "task delivered no payload"
                | o -> Runner.describe o
              in
              (id, Error why))
        (Runner.run_collect ?jobs ?seed ?timeout ?retries jobs_list))

(* --- metrics ----------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric_json m =
  Json.Obj
    [ ("metric", Json.String m.m_name);
      ("value", Json.Float m.m_value);
      ("unit", Json.String m.m_unit) ]

let metrics_json ms = Json.List (List.map metric_json ms)

let metric_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let flt k = Option.bind (Json.member k j) Json.to_float_opt in
  match (str "metric", flt "value", str "unit") with
  | Some m_name, Some m_value, Some m_unit -> Some { m_name; m_value; m_unit }
  | _ -> None

let metrics_of_json = function
  | Json.List ms ->
      let parsed = List.filter_map metric_of_json ms in
      if List.length parsed = List.length ms then Some parsed else None
  | _ -> None

(* --- workloads --------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_eval : policy:Kernel_sim.Policy.t -> seed:int -> metric list;
}

(* All scoring runs on the paper's main machine. *)
let machine = Machine.ppc604_185

let translation_cost perf =
  let lookups = perf.Perf.itlb_lookups + perf.Perf.dtlb_lookups in
  if lookups = 0 then 0.
  else 1000. *. float_of_int (Perf.busy_cycles perf) /. float_of_int lookups

let translation_metric perf =
  { m_name = "translation_cost";
    m_value = translation_cost perf;
    m_unit = "busy cycles per 1000 translations" }

let full_ptegs snap =
  let h = snap.System.htab_histogram in
  if Array.length h > 8 then h.(8) else 0

let hot_spot_metric perf snap =
  { m_name = "htab_hot_spots";
    m_value = float_of_int (full_ptegs snap + perf.Perf.htab_evicts_live);
    m_unit = "full PTEGs + live evictions" }

let kbuild_default =
  { Workloads.Kbuild.default_params with Workloads.Kbuild.jobs = 12 }

let kbuild ?(params = kbuild_default) () =
  { w_name = "kbuild";
    w_eval =
      (fun ~policy ~seed ->
        let k = Kernel_sim.Kernel.boot ~machine ~policy ~seed () in
        let perf =
          Workloads.Measure.perf k (fun () -> Workloads.Kbuild.run k ~params)
        in
        let snap = System.snapshot k in
        [ translation_metric perf;
          { m_name = "tail_latency";
            m_value = Metrics.wall_us ~machine perf;
            m_unit = "us wall-clock (batch: the tail IS the total)" };
          hot_spot_metric perf snap ]) }

let server ?params model =
  let params =
    let base = Option.value params ~default:Workloads.Server.default_params in
    { base with Workloads.Server.model }
  in
  { w_name = "server-" ^ Workloads.Server.model_name model;
    w_eval =
      (fun ~policy ~seed ->
        let k = Kernel_sim.Kernel.boot ~machine ~policy ~seed () in
        let (hist, _), perf =
          Workloads.Measure.region k (fun () -> Workloads.Server.run k ~params)
        in
        let snap = System.snapshot k in
        [ translation_metric perf;
          { m_name = "tail_latency";
            m_value = float_of_int (Hist.percentile hist 0.99);
            m_unit = "p99 request completion cycles" };
          hot_spot_metric perf snap ]) }

let default_workloads =
  [ kbuild ();
    server Workloads.Server.Pool;
    server
      ~params:
        { Workloads.Server.default_params with Workloads.Server.requests = 120 }
      Workloads.Server.Fork_exec ]

let smoke_workloads =
  [ kbuild
      ~params:
        { Workloads.Kbuild.default_params with
          Workloads.Kbuild.jobs = 4;
          compute_rounds = 6;
          job_data_pages = 128;
          source_pages = 8;
          header_pages = 16 }
      ();
    server
      ~params:
        { Workloads.Server.default_params with Workloads.Server.requests = 80 }
      Workloads.Server.Pool ]

(* --- candidates -------------------------------------------------------- *)

type axis = { a_key : string; a_values : string list }

type candidate = {
  c_label : string;
  c_assignment : (string * string) list;
  c_policy : Kernel_sim.Policy.t;
}

let label_of assignment =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) assignment)

let base_candidate ?(label = "paper_default") policy =
  { c_label = label; c_assignment = []; c_policy = policy }

let candidate_of_assignment ~base assignment =
  let policy =
    List.fold_left
      (fun p (k, v) ->
        match Policy.set p k v with
        | Ok p -> p
        | Error e -> invalid_arg ("tuner axis: " ^ e))
      base assignment
  in
  { c_label = label_of assignment; c_assignment = assignment; c_policy = policy }

let grid ~base axes =
  let assignments =
    List.fold_left
      (fun acc ax ->
        List.concat_map
          (fun assign ->
            List.map (fun v -> (ax.a_key, v) :: assign) ax.a_values)
          acc)
      [ [] ] axes
  in
  List.map (fun a -> candidate_of_assignment ~base (List.rev a)) assignments

let default_axes =
  [ { a_key = "vsid_multiplier"; a_values = [ "17"; "64"; "897" ] };
    { a_key = "flush_cutoff"; a_values = [ "4"; "20"; "none" ] };
    { a_key = "tlb_replacement"; a_values = [ "lru"; "fifo"; "random" ] } ]

let smoke_axes =
  [ { a_key = "vsid_multiplier"; a_values = [ "64"; "897" ] };
    { a_key = "flush_cutoff"; a_values = [ "0"; "20" ] };
    { a_key = "tlb_replacement"; a_values = [ "lru"; "fifo" ] } ]

(* --- evaluation -------------------------------------------------------- *)

type eval = {
  e_cand : candidate;
  e_metrics : (string * metric list) list;
}

let task_sep = " @ "

let evaluate ?jobs ?(seed = 42) ?timeout ?retries ~workloads cands =
  (* dedupe by label (the grid and explicit extras can overlap) *)
  let seen = Hashtbl.create 16 in
  let cands =
    List.filter
      (fun c ->
        if Hashtbl.mem seen c.c_label then false
        else begin
          Hashtbl.add seen c.c_label ();
          true
        end)
      cands
  in
  (* Each distinct policy runs once, under the first label that names
     it; a later label with an equal policy reads that run. *)
  let runner c = List.find (fun r -> r.c_policy = c.c_policy) cands in
  let tasks =
    List.concat_map
      (fun c ->
        if runner c != c then []
        else
          List.map
            (fun w ->
              ( c.c_label ^ task_sep ^ w.w_name,
                fun ?seed:(job_seed : int option) () ->
                  let seed = Option.value job_seed ~default:seed in
                  metrics_json (w.w_eval ~policy:c.c_policy ~seed) ))
            workloads)
      cands
  in
  let results = Hashtbl.create 64 in
  List.iter
    (fun (id, r) -> Hashtbl.replace results id r)
    (fan_out ?jobs ~seed ?timeout ?retries tasks);
  let result c w =
    Hashtbl.find results ((runner c).c_label ^ task_sep ^ w.w_name)
  in
  let failures =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun w ->
            match result c w with
            | Ok _ -> None
            | Error e -> Some (c.c_label ^ task_sep ^ w.w_name, e))
          workloads)
      cands
  in
  let evals =
    List.filter_map
      (fun c ->
        let per_w =
          List.filter_map
            (fun w ->
              match result c w with
              | Ok j ->
                  Option.map (fun ms -> (w.w_name, ms)) (metrics_of_json j)
              | Error _ -> None)
            workloads
        in
        (* a candidate with any failed workload cannot be compared *)
        if List.length per_w = List.length workloads then
          Some { e_cand = c; e_metrics = per_w }
        else None)
      cands
  in
  (evals, failures)

(* --- scoring and the Pareto front -------------------------------------- *)

let vector e =
  List.concat_map (fun (_, ms) -> List.map (fun m -> m.m_value) ms) e.e_metrics

let dominates a b =
  let va = vector a and vb = vector b in
  List.length va = List.length vb
  && List.for_all2 ( <= ) va vb
  && List.exists2 ( < ) va vb

let pareto evals =
  List.filter
    (fun e -> not (List.exists (fun o -> o != e && dominates o e) evals))
    evals

let score ~base e =
  let vb = vector base and ve = vector e in
  if List.length vb <> List.length ve || vb = [] then infinity
  else
    let ratios = List.map2 (fun v b -> (1. +. v) /. (1. +. b)) ve vb in
    List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)

(* --- the whole tuning run ---------------------------------------------- *)

type result = {
  r_base : eval;
  r_evals : eval list;
  r_front : eval list;
  r_winner : eval;
  r_failures : (string * string) list;
}

(* The search space is exactly the base, the grid and the extras: the
   grid is already the whole Cartesian product of the axes, and nothing
   around the base is tried unless an axis lists it. *)
let tune ?jobs ?(seed = 42) ?timeout ?retries ?(base = Policy.paper_default)
    ?(base_label = "paper_default") ?(extra = []) ~workloads ~axes () =
  let cands = (base_candidate ~label:base_label base :: grid ~base axes) @ extra in
  let evals, fails = evaluate ?jobs ~seed ?timeout ?retries ~workloads cands in
  let base_eval =
    match
      List.find_opt (fun e -> String.equal e.e_cand.c_label base_label) evals
    with
    | Some e -> e
    | None ->
        failwith
          ("tuner: the base policy '" ^ base_label ^ "' failed to evaluate")
  in
  let front = pareto evals in
  (* the lowest score on the front, the earliest on a tie; the front is
     never empty, since the base or whatever dominates it is on it *)
  let score = score ~base:base_eval in
  let winner =
    List.fold_left
      (fun w e -> if score e < score w then e else w)
      (List.hd front) front
  in
  { r_base = base_eval;
    r_evals = evals;
    r_front = front;
    r_winner = winner;
    r_failures = fails }

let on_front result label =
  List.exists (fun e -> String.equal e.e_cand.c_label label) result.r_front

(* --- the committed document -------------------------------------------- *)

let schema = "mmu-tricks/tuner-v1"

let round6 f = Float.round (f *. 1e6) /. 1e6

let doc ~seed ~axes ~workloads result =
  let front_labels = List.map (fun e -> e.e_cand.c_label) result.r_front in
  let cand_json e =
    Json.Obj
      [ ("label", Json.String e.e_cand.c_label);
        ( "assignment",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.String v)) e.e_cand.c_assignment)
        );
        ("score", Json.Float (round6 (score ~base:result.r_base e)));
        ( "pareto",
          Json.Bool (List.exists (String.equal e.e_cand.c_label) front_labels)
        );
        ( "metrics",
          Json.Obj
            (List.map
               (fun (w, ms) ->
                 ( w,
                   metrics_json
                     (List.map (fun m -> { m with m_value = round6 m.m_value })
                        ms) ))
               e.e_metrics) ) ]
  in
  Json.Obj
    ([ ("schema", Json.String schema);
       ("seed", Json.Int seed);
       ("base", Json.String result.r_base.e_cand.c_label);
       ("winner", Json.String result.r_winner.e_cand.c_label);
       ( "axes",
         Json.List
           (List.map
              (fun a ->
                Json.Obj
                  [ ("key", Json.String a.a_key);
                    ( "values",
                      Json.List
                        (List.map (fun v -> Json.String v) a.a_values) ) ])
              axes) );
       ( "workloads",
         Json.List (List.map (fun w -> Json.String w.w_name) workloads) );
       ( "pareto_front",
         Json.List (List.map (fun l -> Json.String l) front_labels) );
       ("candidates", Json.List (List.map cand_json result.r_evals)) ]
    @
    if result.r_failures = [] then []
    else
      [ ( "failures",
          Json.List
            (List.map
               (fun (id, e) ->
                 Json.Obj
                   [ ("id", Json.String id); ("error", Json.String e) ])
               result.r_failures) ) ])

(* --- explaining a winner ------------------------------------------------ *)

let metric_table w_name metrics =
  { Experiments.title = "tuner workload " ^ w_name;
    header = [ "metric"; "value"; "unit" ];
    rows =
      List.map
        (fun m -> [ m.m_name; Printf.sprintf "%.6g" m.m_value; m.m_unit ])
        metrics;
    notes = [] }

(* Rerun the workloads under one policy with the attribution profiler
   armed and package the result as a results document, so the generic
   Explain machinery (the one behind [mmu_sim explain]) can rank the
   deltas and name the responsible PID/segment accounts. *)
let profiled_doc ~seed ~workloads policy =
  let entries =
    Runner.armed
      { Boot.plain with Boot.profile = true }
      (fun () ->
        List.map
          (fun w ->
            let ms = w.w_eval ~policy ~seed in
            let profs =
              List.map Kernel_sim.Kernel.profile
                (Kernel_sim.Kernel.drain_smp_registered ())
            in
            (w.w_name, metric_table w.w_name ms, Profile_export.to_json profs))
          workloads)
  in
  let tables = List.map (fun (n, t, _) -> (n, t)) entries in
  let obs =
    List.map (fun (n, _, p) -> (n, Json.Obj [ ("profile", p) ])) entries
  in
  let json = Baseline.doc_to_json ~observability:obs ~seed tables in
  match Baseline.doc_of_json json with
  | Ok doc -> (doc, json)
  | Error e -> failwith ("tuner: internal results document invalid: " ^ e)

let explain ?top ?(seed = 42) ~workloads ~base ~candidate () =
  let a_doc, a_json = profiled_doc ~seed ~workloads base.c_policy in
  let b_doc, b_json = profiled_doc ~seed ~workloads candidate.c_policy in
  Explain.explain_docs ?top ~a_doc ~a_json ~b_doc ~b_json ()
  |> List.map Explain.render_report
