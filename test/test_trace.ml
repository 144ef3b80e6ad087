(* The observability layer: event ring, histograms, the timeline views,
   Chrome export, and the non-perturbation contract. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Experiments = Mmu_tricks.Experiments
module Profile_export = Mmu_tricks.Profile_export
module Runner = Mmu_tricks.Runner
module Trace_export = Mmu_tricks.Trace
module Json = Mmu_tricks.Json

(* A bare trace over its own clock and timeline recorder. *)
let mk_trace () =
  let perf = Perf.create () in
  let timeline = Recorder.create ~perf in
  (perf, timeline, Trace.create ~timeline)

(* --- histograms ------------------------------------------------------- *)

let test_hist_bucket_boundaries () =
  List.iter
    (fun (v, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket of %d" v)
        expect (Hist.bucket_index v))
    [ (0, 0); (-5, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (15, 4); (16, 5); (1023, 10); (1024, 11) ];
  List.iter
    (fun (i, lo, hi) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "bounds of bucket %d" i)
        (lo, hi) (Hist.bucket_bounds i))
    [ (0, 0, 0); (1, 1, 1); (2, 2, 3); (3, 4, 7); (4, 8, 15) ]

let test_hist_observe () =
  let h = Hist.create () in
  Alcotest.(check bool) "starts empty" true (Hist.is_empty h);
  List.iter (Hist.observe h) [ 1; 2; 3; 4; 7; 8 ];
  Alcotest.(check int) "count" 6 (Hist.count h);
  Alcotest.(check int) "sum" 25 (Hist.sum h);
  Alcotest.(check int) "max" 8 (Hist.max_value h);
  Alcotest.(check (list (triple int int int)))
    "buckets hold [1,1] [2,3] [4,7] [8,15]"
    [ (1, 1, 1); (2, 3, 2); (4, 7, 2); (8, 15, 1) ]
    (Hist.buckets h)

let test_hist_percentile_merge () =
  let h = Hist.create () in
  for _ = 1 to 90 do Hist.observe h 1 done;
  for _ = 1 to 10 do Hist.observe h 100 done;
  Alcotest.(check int) "p50 in the small bucket" 1 (Hist.percentile h 0.5);
  Alcotest.(check int)
    "p99 reaches the top bucket's true max" 100 (Hist.percentile h 0.99);
  let other = Hist.create () in
  Hist.observe other 1000;
  Hist.merge_into ~into:h other;
  Alcotest.(check int) "merged count" 101 (Hist.count h);
  Alcotest.(check int) "merged max" 1000 (Hist.max_value h);
  Hist.reset h;
  Alcotest.(check bool) "reset empties" true (Hist.is_empty h)

(* --- the event ring --------------------------------------------------- *)

let test_disabled_emits_nothing () =
  let _, _, tr = mk_trace () in
  Trace.emit tr Trace.Bat_hit ~pid:0 ~a:1 ~b:2;
  Trace.emit_htab_probe tr ~pid:0 ~len:5 ~hit:true;
  Trace.emit_tlb_service tr ~pid:0 ~ea:0x1000 ~cost:40;
  Trace.emit_context_switch tr ~pid:3 ~cost:500;
  Alcotest.(check int) "no events" 0 (Trace.total tr);
  Alcotest.(check int) "no kind counts" 0 (Trace.kind_count tr Trace.Bat_hit);
  Alcotest.(check bool)
    "no histogram observations" true
    (Hist.is_empty (Trace.hist_probe tr)
    && Hist.is_empty (Trace.hist_tlb_service tr)
    && Hist.is_empty (Trace.hist_ctxsw tr))

let test_ring_wraparound () =
  let perf, _, tr = mk_trace () in
  Trace.enable ~ring:8 tr;
  for i = 0 to 19 do
    perf.Perf.cycles <- i * 10;
    Trace.emit tr Trace.Bat_hit ~pid:0 ~a:i ~b:0
  done;
  Alcotest.(check int) "capacity" 8 (Trace.capacity tr);
  Alcotest.(check int) "total counts every emit" 20 (Trace.total tr);
  Alcotest.(check int) "length capped at capacity" 8 (Trace.length tr);
  Alcotest.(check int) "dropped = total - length" 12 (Trace.dropped tr);
  Alcotest.(check int)
    "kind counts survive the wrap" 20
    (Trace.kind_count tr Trace.Bat_hit);
  let got = List.map (fun e -> e.Trace.e_a) (Trace.events tr) in
  Alcotest.(check (list int))
    "oldest-first, oldest 12 overwritten"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    got;
  let cycles = List.map (fun e -> e.Trace.e_cycle) (Trace.events tr) in
  Alcotest.(check int) "cycle stamps preserved" 120 (List.hd cycles)

let test_event_payloads () =
  let _, _, tr = mk_trace () in
  Trace.enable ~ring:16 tr;
  Trace.emit tr Trace.Page_fault ~pid:7 ~a:0xBEEF ~b:2;
  Trace.emit tr Trace.Idle_prezero ~pid:0 ~a:42 ~b:1;
  match Trace.events tr with
  | [ e1; e2 ] ->
      Alcotest.(check int) "emit stamps the named pid" 7 e1.Trace.e_pid;
      Alcotest.(check int) "payload a" 0xBEEF e1.Trace.e_a;
      Alcotest.(check int) "kernel work is pid 0" 0 e2.Trace.e_pid
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* The trace's timeline is the timeline recorder's samples, taken by
   [Memsys.charge]: the trace itself samples nothing. *)
let test_sampling () =
  let m = Memsys.create ~machine:Machine.ppc604_185 ~perf:(Perf.create ()) in
  let tr = Memsys.trace m in
  Memsys.instructions m 150;
  Alcotest.(check int) "no timeline until armed" 0
    (List.length (Trace.samples tr));
  Memsys.arm_timeline m ~every:100;
  Memsys.instructions m 120;
  Memsys.instructions m 130;
  (match Trace.samples tr with
  | [ (c1, _); (c2, s2) ] ->
      Alcotest.(check int) "first sample at the first charge past 250" 270 c1;
      Alcotest.(check int) "rescheduled from the actual cycle" 400 c2;
      Alcotest.(check int) "snapshot captured" 400 s2.Perf.cycles
  | l -> Alcotest.failf "expected 2 samples, got %d" (List.length l));
  Alcotest.(check int) "a view: the recorder holds the same samples" 2
    (Recorder.length (Memsys.timeline m))

(* --- exporters -------------------------------------------------------- *)

let test_chrome_roundtrip () =
  let perf, timeline, tr = mk_trace () in
  Trace.enable ~ring:64 tr;
  Recorder.enable ~every:1000 ~cap:max_int timeline;
  perf.Perf.cycles <- 1000;
  Trace.emit tr Trace.Dtlb_miss ~pid:2 ~a:0x4000_0000 ~b:0;
  perf.Perf.cycles <- 1200;
  Trace.emit_tlb_service tr ~pid:2 ~ea:0x4000_0000 ~cost:200;
  Trace.emit_context_switch tr ~pid:2 ~cost:800;
  Recorder.take_sample timeline;
  perf.Perf.cycles <- 2400;
  perf.Perf.dtlb_misses <- 5;
  Recorder.take_sample timeline;
  let doc = Trace_export.to_chrome ~mhz:100 ~name:"test" tr in
  let text = Json.to_string ~compact:true doc in
  match Json.of_string text with
  | Error e -> Alcotest.failf "emitted chrome JSON does not parse: %s" e
  | Ok parsed -> (
      match Json.member "traceEvents" parsed with
      | Some (Json.List events) ->
          Alcotest.(check bool)
            "has metadata, events, and counter samples" true
            (List.length events > 4);
          let phases =
            List.filter_map
              (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt)
              events
          in
          Alcotest.(check bool) "has instants" true (List.mem "i" phases);
          Alcotest.(check bool) "has spans" true (List.mem "X" phases);
          Alcotest.(check bool) "has counters" true (List.mem "C" phases)
      | _ -> Alcotest.fail "traceEvents missing or not a list")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_summary_text () =
  let _, _, tr = mk_trace () in
  Trace.enable ~ring:16 tr;
  Trace.emit_htab_probe tr ~pid:0 ~len:3 ~hit:true;
  let s = Trace_export.summary tr in
  Alcotest.(check bool) "mentions the probe event" true
    (contains ~needle:"htab_probe" s);
  Alcotest.(check bool) "mentions the probe histogram" true
    (contains ~needle:"probe length" s)

(* --- non-perturbation -------------------------------------------------
   The acceptance contract: a traced run produces exactly the counters of
   an untraced run at the same seed. *)

let drive k =
  let t1 = Kernel.spawn k () in
  Kernel.switch_to k t1;
  Kernel.user_run k ~instrs:20_000;
  let data = Kernel_sim.Mm.user_text_base + (16 lsl Addr.page_shift) in
  for i = 0 to 15 do
    Kernel.touch k Mmu.Store (data + (i lsl Addr.page_shift))
  done;
  let t2 = Kernel.sys_fork k in
  Kernel.switch_to k t2;
  Kernel.user_run k ~instrs:10_000;
  Kernel.touch k Mmu.Store data;
  Kernel.sys_exit k;
  Kernel.switch_to k t1;
  Kernel.idle_for k ~cycles:30_000;
  let arena = Kernel.sys_mmap k ~pages:32 ~writable:true in
  for i = 0 to 31 do
    Kernel.touch k Mmu.Store (arena + (i lsl Addr.page_shift))
  done;
  Kernel.sys_munmap k ~ea:arena ~pages:32

let test_no_perturbation () =
  let boot () =
    Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:7 ()
  in
  let plain = boot () in
  drive plain;
  let traced = boot () in
  let tr = Kernel.trace traced in
  Trace.enable ~ring:1024 tr;
  Memsys.arm_timeline (Kernel.memsys traced) ~every:50_000;
  drive traced;
  Alcotest.(check bool) "trace recorded something" true (Trace.total tr > 0);
  Alcotest.(check bool) "and sampled a timeline" true
    (Trace.samples tr <> []);
  Alcotest.(check bool) "user faults belong to user tasks" true
    (List.for_all
       (fun e -> e.Trace.e_kind <> Trace.Page_fault || e.Trace.e_pid > 0)
       (Trace.events tr));
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check int) ("counter " ^ name ^ " unperturbed") a b)
    (Perf.fields (Kernel.perf plain))
    (Perf.fields (Kernel.perf traced))

(* --- the two views of one timeline ---------------------------------

   Trace and profile armed through the boot configuration share one
   timeline cadence: the kernels' Perf timelines and htab occupancy
   maps are views of the same recorder samples. *)

let armed_run ?(timeline = 50_000) id =
  Runner.armed
    { Boot.plain with
      Boot.trace = Trace.default_ring; profile = true; timeline }
    (fun () ->
      ignore ((Option.get (Experiments.find id)).Experiments.run ~seed:42 ());
      Kernel.drain_smp_registered ())

let test_views_share_samples () =
  let kernels = armed_run "D1" in
  Alcotest.(check bool) "kernels booted" true (kernels <> []);
  List.iter
    (fun k ->
      let trace_cycles = List.map fst (Trace.samples (Kernel.trace k)) in
      let profile_cycles =
        List.map
          (fun s -> s.Profile.h_cycle)
          (Profile.samples (Kernel.profile k))
      in
      Alcotest.(check bool) "the timeline sampled" true (trace_cycles <> []);
      Alcotest.(check (list int)) "trace and profile carry the same cycles"
        trace_cycles profile_cycles)
    kernels

let member_list key j =
  match Json.member key j with Some (Json.List l) -> l | _ -> []

(* [experiment E2 --trace --profile --json]: the timeline runs for the
   occupancy map, but the trace did not ask for it. *)
let test_no_timeline_request () =
  let kernels = armed_run ~timeline:100_000 "E2" in
  let obs =
    Trace_export.observability_json ~timelines:false
      (List.map Kernel.trace kernels)
  in
  Alcotest.(check int) "no timelines exported" 0
    (List.length (member_list "timelines" obs));
  let occupancy =
    List.map
      (fun h -> List.length (member_list "samples" h))
      (member_list "htab"
         (Profile_export.to_json (List.map Kernel.profile kernels)))
  in
  Alcotest.(check (list int)) "occupancy still sampled" [ 268; 257; 255 ]
    occupancy

let test_no_htab_no_occupancy () =
  let k =
    Boot.with_config
      { Boot.plain with Boot.profile = true; timeline = 10_000 }
      (fun () ->
        Kernel.boot ~machine:Machine.ppc603_133
          ~policy:{ Policy.optimized with use_htab = false }
          ~seed:7 ())
  in
  drive k;
  let pr = Kernel.profile k in
  Alcotest.(check bool) "the timeline sampled" true
    (Recorder.length (Memsys.timeline (Kernel.memsys k)) > 0);
  Alcotest.(check int) "no occupancy samples" 0
    (List.length (Profile.samples pr));
  Alcotest.(check bool) "no end-of-run snapshot" true
    (Profile.snapshot_htab pr = None);
  Alcotest.(check int) "no htab map exported" 0
    (List.length (member_list "htab" (Profile_export.to_json [ pr ])))

let suite =
  [ Alcotest.test_case "hist bucket boundaries" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "hist observe/buckets" `Quick test_hist_observe;
    Alcotest.test_case "hist percentile/merge/reset" `Quick
      test_hist_percentile_merge;
    Alcotest.test_case "disabled path emits nothing" `Quick
      test_disabled_emits_nothing;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "event payloads and pids" `Quick test_event_payloads;
    Alcotest.test_case "timeline sampling" `Quick test_sampling;
    Alcotest.test_case "chrome JSON round-trips" `Quick test_chrome_roundtrip;
    Alcotest.test_case "text summary" `Quick test_summary_text;
    Alcotest.test_case "tracing does not perturb counters" `Quick
      test_no_perturbation;
    Alcotest.test_case "trace and profile views share samples" `Quick
      test_views_share_samples;
    Alcotest.test_case "no timeline request exports none" `Quick
      test_no_timeline_request;
    Alcotest.test_case "no htab exports no occupancy" `Quick
      test_no_htab_no_occupancy ]
