(* One benchmark run: a workload measured with tracing off (end-to-end
   metrics), or the traced run that yields the per-layer metrics.

   Every run also checks the simulated results; each failed check counts
   as a failed op.  See README.md for what each metric means, which layer
   moves it, and why each workload exists. *)

open Ppc
module Json = Mmu_tricks.Json
module Kernel = Kernel_sim.Kernel

type workload = Warm | Reload | Server | Sweep

let workloads =
  [ ("warm", Warm); ("reload", Reload); ("server", Server); ("sweep", Sweep) ]

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * (float * string)) list;  (* newest first *)
}

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

let metric r name unit v = r.metrics <- (name, (v, unit)) :: r.metrics

let info fmt = Printf.printf (fmt ^^ "\n%!")

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* One set-up, in seconds.  It starts from a collected heap, so it never
   pays for the garbage of whatever ran before it. *)
let time_setup f =
  Gc.full_major ();
  let t0 = Clock.now () in
  let x = f () in
  (Clock.seconds_since t0, x)

(* Median of [reps] set-ups, in seconds; the last one's result kept. *)
let setup_median ~reps f =
  let last = ref None in
  let times =
    Array.init reps (fun _ ->
        let s, x = time_setup f in
        last := Some x;
        s)
  in
  (Stats.median times, Option.get !last)

let setup_reps = 21

(* Throughput is read high in the per-sample rates: host contention
   (other tenants, frequency dips) only ever slows a sample down, in
   bursts lasting seconds, so a high percentile tracks the uncontended
   speed and is much steadier across runs than the median, which a burst
   can drag.  The percentile is fixed per workload, so it never switches
   with the sample count: p99 of the translation loops' thousands of
   samples, p75 of server's ~100 repetitions (at least 10 samples beyond
   either).  Medians and tails are printed alongside. *)
let fast w rates =
  Stats.quantile rates
    ~permille:(match w with Warm | Reload -> 990 | Server | Sweep -> 750)

(* --------------------------------------------------- translation loops *)

type timed = {
  ns_per_op : float array;  (* one entry per sample *)
  mcycles_per_s : float array;
  ops : int;
  words : float;
  majors : int;
  perf : Perf.t;  (* counters over the timed region *)
}

(* [batch] translations per sample, samples until [seconds] have passed.
   With a [tracer], every Kernel.touch runs inside a span. *)
let time_loop ?tracer (l : Work.loop) ~seconds ~batch =
  let cap = 1 + int_of_float (seconds *. 4000.) in
  let ns = Array.make cap 0. and mc = Array.make cap 0. in
  let perf = Kernel.perf l.Work.k in
  let before = Perf.snapshot perf in
  let majors0 = major_collections () in
  let w0 = Gc.minor_words () in
  let deadline = Clock.now () + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while !n < cap && Clock.now () < deadline do
    let c0 = perf.Perf.cycles in
    let t0 = Clock.now () in
    (match tracer with
    | None -> Work.run_ops l batch
    | Some tr ->
        let k = l.Work.k and eas = l.Work.eas and kinds = l.Work.kinds in
        let m = Array.length eas in
        for _ = 1 to batch do
          let j = l.Work.cursor in
          Reqtrace.t_touch tr k (Array.unsafe_get kinds j) (Array.unsafe_get eas j);
          l.Work.cursor <- (if j + 1 = m then 0 else j + 1)
        done);
    let dt = Clock.now () - t0 in
    ns.(!n) <- float_of_int dt /. float_of_int batch;
    mc.(!n) <- float_of_int (perf.Perf.cycles - c0) /. float_of_int dt *. 1e3;
    incr n
  done;
  let words = Gc.minor_words () -. w0 in
  { ns_per_op = Array.sub ns 0 !n;
    mcycles_per_s = Array.sub mc 0 !n;
    ops = !n * batch;
    words;
    majors = major_collections () - majors0;
    perf = Perf.diff ~after:(Perf.snapshot perf) ~before }

(* translations per timing sample: a few milliseconds each *)
let batch_of = function Reload -> 16_384 | _ -> 65_536

let check_loop r ~reload (l : Work.loop) (t : timed) =
  List.iter (fail r "%s") (Work.loop_invariants ~reload ~ops:t.ops t.perf);
  List.iter
    (fun ea -> fail r "fast path disagrees with the reference MMU at %#x" ea)
    (Work.translation_mismatches l)

let check_pinned r ~name ~seed ~table got =
  match List.assoc_opt seed table with
  | Some want when want <> got ->
      fail r "%s result digest at seed %d is %s, pinned %s" name seed got want
  | Some _ -> info "%s result digest at seed %d matches the pinned one" name seed
  | None -> ()

let setup_loop w ~seed =
  match w with
  | Reload -> Work.setup_reload ~seed
  | _ -> Work.setup_warm ~seed

let merge (ts : timed list) =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  { ns_per_op = Array.concat (List.map (fun t -> t.ns_per_op) ts);
    mcycles_per_s = Array.concat (List.map (fun t -> t.mcycles_per_s) ts);
    ops = sum (fun t -> t.ops);
    words = List.fold_left (fun acc t -> acc +. t.words) 0. ts;
    majors = sum (fun t -> t.majors);
    perf = (List.hd ts).perf (* per-chunk counters are checked, not merged *) }

(* The timed loop runs in [setup_reps] chunks with one more set-up timed
   before each, so the set-up median samples the whole run, not one
   moment of it. *)
let loop_e2e r w ~seed ~seconds =
  let reload = w = Reload in
  let l = setup_loop w ~seed in
  let setups = Array.make setup_reps 0. in
  let chunks =
    List.init setup_reps (fun i ->
        setups.(i) <- fst (time_setup (fun () -> setup_loop w ~seed));
        time_loop l ~seconds:(seconds /. float_of_int setup_reps)
          ~batch:(batch_of w))
  in
  List.iter
    (fun t ->
      r.attempted <- r.attempted + t.ops;
      check_loop r ~reload l t)
    chunks;
  let t = merge chunks in
  let pinned = Work.perf_digest (Work.pinned_loop_perf ~reload ~seed) in
  r.attempted <- r.attempted + 1;
  check_pinned r ~name:(if reload then "reload" else "warm") ~seed
    ~table:(if reload then Work.pinned_reload else Work.pinned_warm)
    pinned;
  let s = Stats.summarize t.ns_per_op in
  info "host ns per translation: %s" (Stats.describe ~unit:"ns" s);
  info "translations_per_s %.0f, minor words per translation %.4f, major GCs %d"
    (1e9 /. s.Stats.median) (t.words /. float_of_int t.ops) t.majors;
  metric r "setup_s" "s" (Stats.median setups);
  metric r "ops_per_s" "1/s" (fast w (Array.map (fun ns -> 1e9 /. ns) t.ns_per_op));
  metric r "sim_mcycles_per_s" "Mcycles/s" (fast w t.mcycles_per_s);
  metric r "peak_heap_mb" "MB" (peak_heap_mb ())

(* ------------------------------------------------------------- server *)

type server_timed = {
  s_setup : float array;
  s_rps : float array;
  s_mcps : float array;
  s_words : float;
  s_majors : int;
  s_requests : int;
}

(* Repetitions of boot + Server.run at the same seed until [seconds]
   have passed (at least three).  Every repetition must reproduce the
   first one exactly. *)
let server_e2e_reps r ~seed ~seconds =
  let requests = Work.server_requests in
  let deadline = Clock.now () + int_of_float (seconds *. 1e9) in
  let setup = ref [] and rps = ref [] and mcps = ref [] in
  let words = ref 0. and majors = ref 0 and first = ref None in
  let reps = ref 0 in
  while !reps < 3 || Clock.now () < deadline do
    (* no collection before the boot: repetitions share one heap, as a
       long-running server's requests do, and collecting before each
       would slow the requests that follow *)
    let t0 = Clock.now () in
    let k = Work.server_boot ~seed in
    let setup_s = Clock.seconds_since t0 in
    let t1 = Clock.now () in
    let m0 = major_collections () and w0 = Gc.minor_words () in
    let res = Work.server_run k ~requests in
    let t2 = Clock.now () in
    words := !words +. (Gc.minor_words () -. w0);
    majors := !majors + (major_collections () - m0);
    setup := setup_s :: !setup;
    rps := float_of_int requests /. (float_of_int (t2 - t1) *. 1e-9) :: !rps;
    mcps := float_of_int res.Work.perf.Perf.cycles /. float_of_int (t2 - t1) *. 1e3
            :: !mcps;
    r.attempted <- r.attempted + requests;
    (match !first with
    | None -> first := Some res
    | Some f ->
        if not (Work.same_server_run f res) then
          fail r "server repetition %d differs from the first at seed %d" !reps
            seed);
    incr reps
  done;
  ( { s_setup = Array.of_list !setup;
      s_rps = Array.of_list !rps;
      s_mcps = Array.of_list !mcps;
      s_words = !words;
      s_majors = !majors;
      s_requests = !reps * requests },
    Option.get !first )

let check_server r ~seed (res : Work.server_run) =
  let n, p50, p99, _ = Work.latency_summary res.Work.hist in
  if n <> Work.server_requests then
    fail r "server latency histogram holds %d requests, expected %d" n
      Work.server_requests;
  let lat = Printf.sprintf "%.1f/%.1f" p50 p99 in
  info "server latency p50/p99 at seed %d: %s cycles (n=%d)" seed lat n;
  let digest = Work.server_digest res in
  r.attempted <- r.attempted + 1;
  match List.assoc_opt seed Work.pinned_server with
  | Some (want, want_lat) ->
      if (digest, lat) <> (want, want_lat) then
        fail r "server at seed %d: digest %s latency %s, pinned %s %s" seed
          digest lat want want_lat
      else info "server result at seed %d matches the pinned one" seed
  | None -> ()

let server_e2e r ~seed ~seconds =
  let t, first = server_e2e_reps r ~seed ~seconds in
  check_server r ~seed first;
  let s = Stats.summarize t.s_rps in
  info "server requests/s per repetition: %s" (Stats.describe ~unit:"req/s" s);
  info "minor words per request %.1f, major GCs %d"
    (t.s_words /. float_of_int t.s_requests) t.s_majors;
  metric r "setup_s" "s" (Stats.median t.s_setup);
  metric r "ops_per_s" "1/s" (fast Server t.s_rps);
  metric r "sim_mcycles_per_s" "Mcycles/s" (fast Server t.s_mcps);
  metric r "peak_heap_mb" "MB" (peak_heap_mb ())

(* -------------------------------------------------------------- sweep *)

let sweep_jobs () = Host.nproc ()

let load_baseline r =
  match Sweep.load_baseline () with
  | Ok b -> b
  | Error e ->
      fail r "cannot read %s: %s" Sweep.baseline_path e;
      exit 1

(* Sweeps while another one still fits in [seconds] (at least one). *)
let sweeps r ~seed ~seconds ~timed ~baseline =
  let deadline = Clock.now () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let t0 = Clock.now () in
    let s = Sweep.run ~timed ~jobs:(sweep_jobs ()) ~seed in
    r.attempted <- r.attempted + List.length s.Sweep.exps;
    List.iter (fail r "%s")
      (Sweep.failures ~seed ~baseline ?previous:(List.nth_opt acc 0) s);
    let acc = s :: acc in
    let now = Clock.now () in
    if now + (now - t0) <= deadline then go acc else List.rev acc
  in
  go []

let sweep_e2e r ~seed ~seconds =
  let setup_s, baseline =
    setup_median ~reps:setup_reps (fun () -> load_baseline r)
  in
  let ss = sweeps r ~seed ~seconds ~timed:false ~baseline in
  let walls = Array.of_list (List.map (fun s -> s.Sweep.wall_s) ss) in
  let n_exps = float_of_int (List.length Sweep.ids) in
  info "sweep seconds (%d jobs): %s" (sweep_jobs ())
    (Stats.describe ~unit:"s" (Stats.summarize walls));
  let last = List.nth ss (List.length ss - 1) in
  let cycles = List.assoc "cycles" (Sweep.total_perf last) in
  info "minor words per experiment %.0f, major GCs %d"
    (Sweep.words last /. n_exps) (Sweep.majors last);
  metric r "setup_s" "s" setup_s;
  let rates = Array.map (fun w -> 1. /. w) walls in
  metric r "ops_per_s" "1/s" (n_exps *. fast Sweep rates);
  metric r "sim_mcycles_per_s" "Mcycles/s"
    (float_of_int cycles /. 1e6 *. fast Sweep rates);
  metric r "peak_heap_mb" "MB"
    (Float.max (peak_heap_mb ())
       (float_of_int (Sweep.top_heap_words last * (Sys.word_size / 8)) /. 1e6))

(* ------------------------------------------------------ traced run *)

let sim_counters r fields =
  let g n = float_of_int (match List.assoc_opt n fields with Some v -> v | None -> 0) in
  let ratio a b = if b = 0. then 0. else a /. b in
  metric r "tlb.miss_ratio" "ratio"
    (ratio (g "itlb_misses" +. g "dtlb_misses") (g "itlb_lookups" +. g "dtlb_lookups"));
  metric r "htab.hit_ratio" "ratio" (ratio (g "htab_hits") (g "htab_searches"));
  metric r "htab.evict_ratio" "ratio" (ratio (g "htab_evicts") (g "htab_reloads"));
  metric r "cache.dmiss_ratio" "ratio"
    (ratio (g "dcache_misses") (g "dcache_accesses"));
  metric r "cache.imiss_ratio" "ratio"
    (ratio (g "icache_misses") (g "icache_accesses"));
  metric r "cache.writebacks" "count" (g "dcache_writebacks");
  metric r "kernel.page_faults" "count" (g "page_faults");
  metric r "kernel.flush_pte_searches" "count" (g "flush_pte_searches");
  metric r "kernel.context_resets" "count" (g "flush_context_resets");
  metric r "pagepool.prezeroed_ratio" "ratio"
    (ratio (g "prezeroed_hits") (g "get_free_page_calls"));
  metric r "memsys.idle_share" "ratio" (ratio (g "idle_cycles") (g "cycles"));
  metric r "sim.mcycles" "Mcycles" (g "cycles" /. 1e6)

let overhead_pct ~untraced ~traced = ((traced /. untraced) -. 1.) *. 100.

let gc_metrics r ~words_per_op ~majors =
  metric r "gc.minor_words_per_op" "words" words_per_op;
  metric r "gc.major_gcs" "count" (float_of_int majors)

(* the layer ladders: the same for every workload's traced run *)
let ladder_rounds = 600

let ladders r ~seed =
  let warm = Work.setup_warm ~seed in
  let wm =
    Rungs.measure ~rounds:ladder_rounds ~calls:4096 (Rungs.warm_rungs warm)
      ~n_addrs:(Array.length warm.Work.eas)
  in
  let rl = Work.setup_reload ~seed in
  let rm =
    Rungs.measure ~rounds:ladder_rounds ~calls:2048 (Rungs.reload_rungs rl)
      ~n_addrs:(Array.length rl.Work.eas)
  in
  r.attempted <- r.attempted + (ladder_rounds * ((7 * 4096) + (3 * 2048)));
  List.iter
    (fun (n, unit, v) -> metric r n unit v)
    (Rungs.warm_metrics wm
    @ Rungs.reload_metrics ~warm:wm rm ~probe_len:(Rungs.probe_len rl))

(* requests in the traced server run: enough that every span the pool
   model issues gets at least 1000 calls (one fork per 32 requests), so
   each span's p99 is honest *)
let trace_requests = 32_000

(* The re-driven server loop with a span per kernel call. *)
let request_ladder r ~seed =
  let tr = Reqtrace.create () in
  ignore
    (Reqtrace.run tr (Work.server_boot ~seed)
       ~params:(Work.server_params ~requests:trace_requests));
  r.attempted <- r.attempted + trace_requests;
  List.iter
    (fun (n, unit, v) ->
      if Float.is_nan v then begin
        fail r "span %s has no honest value" n;
        metric r n unit 0.
      end
      else metric r n unit v)
    (Reqtrace.metrics tr);
  info "server.request host us: %s"
    (Stats.describe ~unit:"us" (Reqtrace.summary tr Reqtrace.request))

(* Alternating plain and traced server runs at the same seed: each traced
   run must reproduce the plain one exactly, and the overhead is the
   ratio of their median host times. *)
let server_overhead r ~seed ~pairs =
  let requests = Work.server_requests in
  let plain_s = Array.make pairs 0. and traced_s = Array.make pairs 0. in
  let words = ref 0. and majors = ref 0 and last = ref None in
  for i = 0 to pairs - 1 do
    let k = Work.server_boot ~seed in
    let m0 = major_collections () and w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let plain = Work.server_run k ~requests in
    plain_s.(i) <- Clock.seconds_since t0;
    words := !words +. (Gc.minor_words () -. w0);
    majors := !majors + (major_collections () - m0);
    let k = Work.server_boot ~seed in
    let before = Perf.snapshot (Kernel.perf k) in
    let t0 = Clock.now () in
    let hist, kind_hists =
      Reqtrace.run (Reqtrace.create ()) k
        ~params:(Work.server_params ~requests)
    in
    traced_s.(i) <- Clock.seconds_since t0;
    let traced =
      { Work.perf = Perf.diff ~after:(Perf.snapshot (Kernel.perf k)) ~before;
        hist;
        kind_hists }
    in
    r.attempted <- r.attempted + (2 * requests);
    if not (Work.same_server_run plain traced) then
      fail r "traced server run does not reproduce Server.run at seed %d" seed;
    last := Some plain
  done;
  metric r "trace.overhead_pct" "%"
    (overhead_pct ~untraced:(Stats.median plain_s)
       ~traced:(Stats.median traced_s));
  gc_metrics r
    ~words_per_op:(!words /. float_of_int (pairs * requests))
    ~majors:!majors;
  sim_counters r (Perf.fields (Option.get !last).Work.perf)

(* Alternating plain and traced chunks of the translation loop; traced
   wraps every Kernel.touch in a span. *)
let loop_overhead r w ~seed ~seconds =
  let reload = w = Reload in
  let l = setup_loop w ~seed in
  let tr = Reqtrace.create () in
  let chunks = 5 in
  let chunk = seconds /. float_of_int (2 * chunks) in
  let pairs =
    List.init chunks (fun _ ->
        let u = time_loop l ~seconds:chunk ~batch:(batch_of w) in
        let t = time_loop ~tracer:tr l ~seconds:chunk ~batch:(batch_of w) in
        (u, t))
  in
  List.iter
    (fun (u, t) ->
      r.attempted <- r.attempted + u.ops + t.ops;
      check_loop r ~reload l u;
      check_loop r ~reload l t)
    pairs;
  let plain = List.map fst pairs and traced = List.map snd pairs in
  let median_ns ts = Stats.median (Array.concat (List.map (fun t -> t.ns_per_op) ts)) in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 plain in
  metric r "trace.overhead_pct" "%"
    (overhead_pct ~untraced:(median_ns plain) ~traced:(median_ns traced));
  gc_metrics r
    ~words_per_op:
      (List.fold_left (fun acc t -> acc +. t.words) 0. plain
      /. float_of_int (sum (fun t -> t.ops)))
    ~majors:(sum (fun t -> t.majors));
  sim_counters r (Perf.fields (Work.pinned_loop_perf ~reload ~seed))

let sweep_metrics r (s : Sweep.sweep) =
  let total = ref 0. and critical = ref 0. in
  List.iter
    (fun e ->
      total := !total +. e.Sweep.host_s;
      critical := Float.max !critical e.Sweep.host_s;
      metric r ("experiments." ^ e.Sweep.id ^ "_s") "s" e.Sweep.host_s)
    s.Sweep.exps;
  metric r "runner.efficiency" "ratio"
    (!total /. (float_of_int (sweep_jobs ()) *. s.Sweep.wall_s));
  metric r "runner.critical_s" "s" !critical;
  metric r "runner.sweep_s" "s" s.Sweep.wall_s

let traced_run r w ~seed ~seconds =
  let baseline = load_baseline r in
  (match w with
  | Warm | Reload -> loop_overhead r w ~seed ~seconds
  | Server -> server_overhead r ~seed ~pairs:5
  | Sweep -> ());
  request_ladder r ~seed;
  ladders r ~seed;
  let traced = List.hd (sweeps r ~seed ~seconds:0. ~timed:true ~baseline) in
  if w = Sweep then begin
    let plain = List.hd (sweeps r ~seed ~seconds:0. ~timed:false ~baseline) in
    metric r "trace.overhead_pct" "%"
      (overhead_pct ~untraced:plain.Sweep.wall_s ~traced:traced.Sweep.wall_s);
    gc_metrics r
      ~words_per_op:(Sweep.words plain /. float_of_int (List.length Sweep.ids))
      ~majors:(Sweep.majors plain);
    sim_counters r (Sweep.total_perf plain)
  end;
  sweep_metrics r traced

(* ---------------------------------------------------------------- run *)

let run w ~seed ~seconds ~trace =
  let r = { attempted = 0; failed = 0; metrics = [] } in
  let calib = Host.calib_ns () in
  info "host %s" (Json.to_string ~compact:true (Host.fingerprint ~calib));
  if not Host.release then
    fail r "built in the %s profile; numbers need --profile release"
      Build_info.profile;
  (match (trace, w) with
  | false, (Warm | Reload) -> loop_e2e r w ~seed ~seconds
  | false, Server -> server_e2e r ~seed ~seconds
  | false, Sweep -> sweep_e2e r ~seed ~seconds
  | true, _ ->
      traced_run r w ~seed ~seconds;
      metric r "host.calib_ns" "ns" calib);
  r

let result_json r =
  let metrics =
    List.rev_map
      (fun (name, (v, unit)) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      r.metrics
  in
  Json.Obj
    [ ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int (max 1 r.attempted));
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj metrics) ]
