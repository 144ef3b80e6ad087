(* The flight timeline layer: derived metrics, detector-rule semantics
   (Above/Below/Step/Drop, warm-up, cooldown), the rules JSON codec, the
   delta-encoded JSONL stream round-tripping through the decoder, the
   decode error paths, metric series, and the Perfetto export shape. *)
open Ppc
module Flight = Mmu_tricks.Flight
module Json = Mmu_tricks.Json

let v ?(cycle = 0) ?(perf = []) ?(gauges = []) () =
  { Flight.v_cycle = cycle; v_perf = perf; v_gauges = gauges }

let fget = function
  | Some x -> x
  | None -> Alcotest.fail "metric returned None"

(* --- derived metrics --------------------------------------------------- *)

let test_interval_metrics () =
  let prev =
    v ~cycle:100
      ~perf:[ ("cycles", 100); ("itlb_lookups", 100); ("idle_cycles", 10) ]
      ()
  in
  let cur =
    v ~cycle:1100
      ~perf:
        [ ("cycles", 1100); ("itlb_lookups", 900); ("dtlb_lookups", 200);
          ("itlb_misses", 6); ("dtlb_misses", 4); ("idle_cycles", 260);
          ("vsid_wraps", 2); ("context_switches", 5) ]
      ()
  in
  let m name = Flight.compute name ~prev:(Some prev) cur in
  Alcotest.(check (float 1e-9)) "tlb misses per 1k lookups" 10.0
    (fget (m "tlb_miss_rate"));
  Alcotest.(check (float 1e-9)) "idle fraction of the interval" 0.25
    (fget (m "idle_fraction"));
  Alcotest.(check (float 1e-9)) "wrap delta" 2.0 (fget (m "vsid_wrap_delta"));
  Alcotest.(check (float 1e-9)) "ctxsw per mcycle" 5000.0
    (fget (m "ctxsw_per_mcycle"));
  (* interval rates need a predecessor *)
  Alcotest.(check bool) "no prev, no rate" true
    (Flight.compute "tlb_miss_rate" ~prev:None cur = None);
  (* a zero-activity interval is 0, not a division crash *)
  Alcotest.(check (float 1e-9)) "zero denominator is 0" 0.0
    (fget (Flight.compute "tlb_miss_rate" ~prev:(Some cur) cur))

let test_gauge_metrics () =
  let cur =
    v
      ~gauges:
        [ ("htab_chains", [| 5; 3; 0; 2; 0; 0; 0; 0; 0 |]);
          ("htab", [| 512; 1024; 128 |]);
          ("runq", [| 3; 9; 1; 5 |]);
          ("span", [| 10; 500; 900 |]) ]
      ()
  in
  let m name = fget (Flight.compute name ~prev:None cur) in
  Alcotest.(check (float 1e-9)) "longest occupied chain bucket" 3.0
    (m "pteg_max_chain");
  Alcotest.(check (float 1e-9)) "occupancy pct" 50.0 (m "htab_occupancy_pct");
  Alcotest.(check (float 1e-9)) "zombie pct of valid" 25.0
    (m "htab_zombie_pct");
  Alcotest.(check (float 1e-9)) "runq spread" 8.0 (m "runq_imbalance");
  Alcotest.(check (float 1e-9)) "span p99" 900.0 (m "span_p99_cycles");
  (* gauges absent -> metric undefined, not zero *)
  Alcotest.(check bool) "no htab gauge, no metric" true
    (Flight.compute "pteg_max_chain" ~prev:None (v ()) = None);
  (* span gauge with zero completed requests stays undefined *)
  Alcotest.(check bool) "no completed spans, no p99" true
    (Flight.compute "span_p99_cycles" ~prev:None
       (v ~gauges:[ ("span", [| 0; 0; 0 |]) ] ())
    = None)

let test_metric_directory () =
  Alcotest.(check bool) "every metric documented" true
    (List.for_all
       (fun n -> Flight.metric_doc n <> None)
       Flight.metric_names);
  Alcotest.(check bool) "unknown metric" true
    (Flight.metric_doc "bogus" = None
    && Flight.compute "bogus" ~prev:None (v ()) = None)

(* --- rules ------------------------------------------------------------- *)

let test_rule_validation () =
  Alcotest.(check bool) "valid rule builds" true
    ((Flight.rule "r" "tlb_miss_rate" (Flight.Above 1.)).Flight.rl_window = 8);
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown metric rejected" true
    (raises (fun () -> Flight.rule "r" "bogus" (Flight.Above 1.)));
  Alcotest.(check bool) "window < 1 rejected" true
    (raises (fun () ->
         Flight.rule ~window:0 "r" "tlb_miss_rate" (Flight.Above 1.)));
  Alcotest.(check bool) "cooldown < 0 rejected" true
    (raises (fun () ->
         Flight.rule ~cooldown:(-1) "r" "tlb_miss_rate" (Flight.Above 1.)))

let test_rules_json_roundtrip () =
  match Flight.rules_of_json (Flight.rules_to_json Flight.default_rules) with
  | Error m -> Alcotest.fail m
  | Ok rules ->
      Alcotest.(check bool) "default rules survive the codec" true
        (rules = Flight.default_rules)

let test_rules_json_errors () =
  let parse s =
    match Json.of_string s with
    | Ok j -> Flight.rules_of_json j
    | Error m -> Alcotest.fail m
  in
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "not an object with rules" true
    (is_err (parse {|{"x": 1}|}));
  Alcotest.(check bool) "rule without id" true
    (is_err (parse {|{"rules": [{"metric": "tlb_miss_rate", "above": 1}]}|}));
  Alcotest.(check bool) "rule without metric" true
    (is_err (parse {|{"rules": [{"id": "r", "above": 1}]}|}));
  Alcotest.(check bool) "no trigger" true
    (is_err (parse {|{"rules": [{"id": "r", "metric": "tlb_miss_rate"}]}|}));
  Alcotest.(check bool) "two triggers" true
    (is_err
       (parse
          {|{"rules": [{"id": "r", "metric": "tlb_miss_rate", "above": 1, "step": 2}]}|}));
  Alcotest.(check bool) "unknown metric inside a rule" true
    (is_err (parse {|{"rules": [{"id": "r", "metric": "bogus", "above": 1}]}|}));
  (* window/cooldown default when omitted *)
  match
    parse {|{"rules": [{"id": "r", "metric": "idle_fraction", "drop": 4}]}|}
  with
  | Error m -> Alcotest.fail m
  | Ok [ r ] ->
      Alcotest.(check bool) "drop trigger decoded with defaults" true
        (r.Flight.rl_trigger = Flight.Drop 4.
        && r.Flight.rl_window = 8 && r.Flight.rl_cooldown = 8)
  | Ok _ -> Alcotest.fail "expected one rule"

let test_load_rules_missing_file () =
  Alcotest.(check bool) "missing file is an Error" true
    (match Flight.load_rules "/nonexistent/rules.json" with
    | Error _ -> true
    | Ok _ -> false)

(* --- detector ---------------------------------------------------------- *)

(* Drive the detector through the runq gauge: instantaneous, so each
   fed value is exactly the metric value. *)
let runq_view =
  let cycle = ref 0 in
  fun depth ->
    incr cycle;
    v ~cycle:!cycle ~gauges:[ ("runq", [| depth; 0 |]) ] ()

let feed det xs =
  let prev = ref None in
  List.concat_map
    (fun x ->
      let cur = runq_view x in
      let incs =
        Flight.detector_step det ~run:1 ~label:"t" ~prev:!prev cur
      in
      prev := Some cur;
      incs)
    xs

let test_above_and_cooldown () =
  let det =
    Flight.detector
      [ Flight.rule ~cooldown:2 "hot" "runq_imbalance" (Flight.Above 10.) ]
  in
  (* fires immediately (no warm-up), then the cooldown eats the next two
     over-threshold samples, then it fires again *)
  let incs = feed det [ 11; 11; 11; 11; 3; 11 ] in
  Alcotest.(check int) "two firings" 2 (List.length incs);
  let first = List.hd incs in
  Alcotest.(check string) "rule id" "hot" first.Flight.i_rule;
  Alcotest.(check string) "metric" "runq_imbalance" first.Flight.i_metric;
  Alcotest.(check (float 1e-9)) "value" 11.0 first.Flight.i_value;
  Alcotest.(check string) "trigger text" "> 10" first.Flight.i_trigger;
  Alcotest.(check bool) "no profiler, no attribution" true
    (first.Flight.i_attr = [])

let test_below_needs_warmup () =
  let det =
    Flight.detector
      [ Flight.rule ~window:3 ~cooldown:0 "cold" "runq_imbalance"
          (Flight.Below 5.) ]
  in
  (* three under-threshold samples during warm-up don't fire; the
     fourth (window now full) does *)
  Alcotest.(check int) "startup cannot trip it" 1
    (List.length (feed det [ 1; 1; 1; 1 ]))

let test_step_excludes_current () =
  let det =
    Flight.detector
      [ Flight.rule ~window:4 ~cooldown:0 "step" "runq_imbalance"
          (Flight.Step 3.) ]
  in
  (* baseline mean is the 4 samples before the spike: 10 > 3 x 1 *)
  let incs = feed det [ 1; 1; 1; 1; 10 ] in
  Alcotest.(check int) "fires on the step" 1 (List.length incs);
  Alcotest.(check (float 1e-9)) "at the spiked value" 10.0
    (List.hd incs).Flight.i_value

let test_step_quiet_on_zero_baseline () =
  let det =
    Flight.detector
      [ Flight.rule ~window:3 ~cooldown:0 "step" "runq_imbalance"
          (Flight.Step 3.) ]
  in
  Alcotest.(check int) "zero mean never steps" 0
    (List.length (feed det [ 0; 0; 0; 9 ]))

let test_drop () =
  let det () =
    Flight.detector
      [ Flight.rule ~window:4 ~cooldown:0 "drop" "runq_imbalance"
          (Flight.Drop 20.) ]
  in
  Alcotest.(check int) "collapse under mean/20 fires" 1
    (List.length (feed (det ()) [ 100; 100; 100; 100; 2 ]));
  Alcotest.(check int) "always-zero metric stays quiet" 0
    (List.length (feed (det ()) [ 0; 0; 0; 0; 0; 0 ]))

(* --- incidents --------------------------------------------------------- *)

let test_incident_codec () =
  let i =
    { Flight.i_run = 3; i_label = "optimized"; i_cycle = 12345;
      i_rule = "htab-chain-spike"; i_metric = "pteg_max_chain";
      i_value = 8.0; i_trigger = "> 7.5";
      i_attr = [ (1, 2, 0, 10, 999); (4, 5, 2, 3, 77) ] }
  in
  Alcotest.(check bool) "round trips" true
    (Flight.incident_of_json (Flight.incident_json i) = i);
  Alcotest.(check string) "describe"
    "[optimized] htab-chain-spike at cycle 12345: pteg_max_chain = 8 (> 7.5)"
    (Flight.describe_incident i)

(* --- sink / stream / decode round trip --------------------------------- *)

let stream_one_run () =
  let perf = Perf.create () in
  let rcd = Recorder.create ~perf in
  Recorder.enable ~every:100 ~cap:64 rcd;
  Recorder.set_label rcd "unit";
  let runq = ref [| 1; 1 |] in
  Recorder.add_source rcd ~name:"runq" (fun () -> Array.copy !runq);
  let lines = ref [] in
  let sk = Flight.sink ~write:(fun l -> lines := l :: !lines) () in
  Flight.attach sk rcd;
  for i = 1 to 5 do
    perf.Perf.cycles <- i * 100;
    perf.Perf.itlb_lookups <- i * 10;
    if i = 4 then runq := [| 20; 0 |] else runq := [| 1; 1 |];
    Recorder.take_sample rcd
  done;
  Flight.finish sk rcd;
  (sk, List.rev !lines)

let test_stream_decode_roundtrip () =
  let sk, lines = stream_one_run () in
  match Flight.decode_lines lines with
  | Error m -> Alcotest.fail m
  | Ok [ tl ] ->
      Alcotest.(check int) "the sink's first run" 1 tl.Flight.tl_run;
      Alcotest.(check string) "label" "unit" tl.Flight.tl_label;
      Alcotest.(check bool) "ended" true tl.Flight.tl_ended;
      Alcotest.(check int) "total" 5 tl.Flight.tl_total;
      Alcotest.(check int) "all samples streamed" 5
        (List.length tl.Flight.tl_views);
      (* deltas re-integrate to absolute values *)
      let last = List.nth tl.Flight.tl_views 4 in
      Alcotest.(check int) "cycles re-integrated" 500
        (Flight.pfield last "cycles");
      Alcotest.(check int) "lookups re-integrated" 50
        (Flight.pfield last "itlb_lookups");
      Alcotest.(check bool) "gauge re-integrated" true
        (Flight.gauge last "runq" = Some [| 1; 1 |]);
      (* the runq spike at sample 4 fired the stock imbalance rule,
         streamed as an incident line and kept by the sink *)
      Alcotest.(check int) "incident decoded" 1
        (List.length tl.Flight.tl_incidents);
      let i = List.hd tl.Flight.tl_incidents in
      Alcotest.(check string) "stock rule fired" "runq-imbalance"
        i.Flight.i_rule;
      Alcotest.(check (float 1e-9)) "at the spike" 20.0 i.Flight.i_value;
      Alcotest.(check bool) "sink kept the same incident" true
        (Flight.incidents sk = [ i ])
  | Ok l -> Alcotest.fail (Printf.sprintf "%d timelines" (List.length l))

let test_delta_encoding_is_sparse () =
  let _, lines = stream_one_run () in
  (* line 0 = begin; line 2 = the second sample: between samples only
     cycles, itlb_lookups changed (runq stayed [|1;1|]) *)
  let j =
    match Json.of_string (List.nth lines 2) with
    | Ok j -> j
    | Error m -> Alcotest.fail m
  in
  (match Json.member "p" j with
  | Some (Json.Obj kvs) ->
      Alcotest.(check (list string)) "only changed counters on the wire"
        [ "cycles"; "itlb_lookups" ]
        (List.sort compare (List.map fst kvs))
  | _ -> Alcotest.fail "second sample has no p object");
  Alcotest.(check bool) "unchanged gauge omitted" true
    (Json.member "g" j = None)

let test_decode_unclosed_run () =
  let _, lines = stream_one_run () in
  let truncated = List.filteri (fun i _ -> i < 3) lines in
  match Flight.decode_lines truncated with
  | Error m -> Alcotest.fail m
  | Ok [ tl ] ->
      Alcotest.(check bool) "not ended" false tl.Flight.tl_ended;
      Alcotest.(check int) "streamed views kept" 2
        (List.length tl.Flight.tl_views);
      Alcotest.(check int) "total falls back to streamed" 2
        tl.Flight.tl_total
  | Ok _ -> Alcotest.fail "expected one open run"

let test_decode_begin_reopens () =
  (* a begin for an already-open run id closes the old run: distinct
     forked workers can reuse process-unique ids *)
  let lines =
    [ {|{"run": 1, "t": "begin", "label": "a", "every": 10}|};
      {|{"run": 1, "t": "s", "c": 10, "p": {"cycles": 10}}|};
      {|{"run": 1, "t": "begin", "label": "b", "every": 10}|};
      {|{"run": 1, "t": "s", "c": 20, "p": {"cycles": 20}}|};
      {|{"run": 1, "t": "end", "label": "b", "c": 20, "samples": 1, "retained": 1, "every": 10}|}
    ]
  in
  match Flight.decode_lines lines with
  | Error m -> Alcotest.fail m
  | Ok [ a; b ] ->
      Alcotest.(check string) "first run closed by the reopen" "a"
        a.Flight.tl_label;
      Alcotest.(check bool) "implicitly, so not ended" false
        a.Flight.tl_ended;
      Alcotest.(check bool) "second run fresh state" true
        (b.Flight.tl_label = "b" && b.Flight.tl_ended
        && Flight.pfield (List.hd b.Flight.tl_views) "cycles" = 20)
  | Ok l -> Alcotest.fail (Printf.sprintf "%d timelines" (List.length l))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_decode_errors_carry_line_numbers () =
  let expect_err lines frag =
    match Flight.decode_lines lines with
    | Ok _ -> Alcotest.fail "expected a decode error"
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" m frag)
          true (contains m frag)
  in
  expect_err [ "not json" ] "line 1";
  expect_err [ {|{"t": "s", "run": 9, "c": 1}|} ] "no begin";
  expect_err [ {|{"t": "mystery"}|} ] "unknown record";
  expect_err [ {|{"run": 1}|} ] "without a \"t\"";
  expect_err
    [ {|{"t": "begin", "run": 1, "every": 1}|}; ""; "%%%" ]
    "line 3"

(* --- series and export ------------------------------------------------- *)

let test_series () =
  let _, lines = stream_one_run () in
  let tl =
    match Flight.decode_lines lines with
    | Ok [ tl ] -> tl
    | _ -> Alcotest.fail "decode"
  in
  let series = Flight.series tl in
  (match List.assoc_opt "runq_imbalance" series with
  | None -> Alcotest.fail "runq series missing"
  | Some pts ->
      Alcotest.(check int) "one point per view" 5 (List.length pts);
      Alcotest.(check bool) "spike visible at its cycle" true
        (List.mem (400, 20.0) pts));
  (* metrics whose sources never appeared are dropped, not zero-filled *)
  Alcotest.(check bool) "no htab gauge, no htab series" true
    (List.assoc_opt "htab_occupancy_pct" series = None)

let test_to_chrome_shape () =
  let _, lines = stream_one_run () in
  let tls =
    match Flight.decode_lines lines with Ok l -> l | Error m -> Alcotest.fail m
  in
  let j = Flight.to_chrome ~mhz:100 tls in
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let ph p e =
    match Json.member "ph" e with
    | Some (Json.String s) -> s = p
    | _ -> false
  in
  Alcotest.(check bool) "process metadata" true (List.exists (ph "M") events);
  Alcotest.(check bool) "counter tracks" true (List.exists (ph "C") events);
  Alcotest.(check bool) "incident instant" true (List.exists (ph "i") events)

(* Run numbers belong to the sink: they count up in attach order, the
   order the "begin" lines reach the stream, and each end line finds its
   own run even when the recorders finish in the other order. *)
let test_sink_numbers_runs () =
  let lines = ref [] in
  let sk = Flight.sink ~write:(fun l -> lines := l :: !lines) () in
  let mk label =
    let rcd = Recorder.create ~perf:(Perf.create ()) in
    Recorder.enable ~every:100 rcd;
    Recorder.set_label rcd label;
    Flight.attach sk rcd;
    rcd
  in
  let a = mk "a" in
  let b = mk "b" in
  Flight.finish sk b;
  Flight.finish sk a;
  let run_of t l =
    match Json.of_string l with
    | Ok j when Json.member "t" j = Some (Json.String t) ->
        Option.bind (Json.member "run" j) Json.to_int_opt
    | _ -> None
  in
  let lines = List.rev !lines in
  Alcotest.(check (list int)) "begin lines count up" [ 1; 2 ]
    (List.filter_map (run_of "begin") lines);
  Alcotest.(check (list int)) "end lines find their runs" [ 2; 1 ]
    (List.filter_map (run_of "end") lines)

(* --- batch detect matches the stream ----------------------------------- *)

let test_batch_detect_matches_stream () =
  let sk, lines = stream_one_run () in
  let tl =
    match Flight.decode_lines lines with
    | Ok [ tl ] -> tl
    | _ -> Alcotest.fail "decode"
  in
  Alcotest.(check bool)
    "replay --detect over the decoded stream re-fires the same incidents"
    true
    (Flight.detect tl = Flight.incidents sk)

let suite =
  [ Alcotest.test_case "interval metrics" `Quick test_interval_metrics;
    Alcotest.test_case "gauge metrics" `Quick test_gauge_metrics;
    Alcotest.test_case "metric directory" `Quick test_metric_directory;
    Alcotest.test_case "rule validation" `Quick test_rule_validation;
    Alcotest.test_case "rules json round trip" `Quick
      test_rules_json_roundtrip;
    Alcotest.test_case "rules json errors" `Quick test_rules_json_errors;
    Alcotest.test_case "load rules missing file" `Quick
      test_load_rules_missing_file;
    Alcotest.test_case "Above fires, cooldown suppresses" `Quick
      test_above_and_cooldown;
    Alcotest.test_case "Below needs warm-up" `Quick test_below_needs_warmup;
    Alcotest.test_case "Step baseline excludes current" `Quick
      test_step_excludes_current;
    Alcotest.test_case "Step quiet on zero baseline" `Quick
      test_step_quiet_on_zero_baseline;
    Alcotest.test_case "Drop collapse detector" `Quick test_drop;
    Alcotest.test_case "incident codec" `Quick test_incident_codec;
    Alcotest.test_case "sink numbers runs in order" `Quick
      test_sink_numbers_runs;
    Alcotest.test_case "stream decode round trip" `Quick
      test_stream_decode_roundtrip;
    Alcotest.test_case "delta encoding is sparse" `Quick
      test_delta_encoding_is_sparse;
    Alcotest.test_case "unclosed run decoded" `Quick test_decode_unclosed_run;
    Alcotest.test_case "begin reopens a run id" `Quick
      test_decode_begin_reopens;
    Alcotest.test_case "decode errors carry line numbers" `Quick
      test_decode_errors_carry_line_numbers;
    Alcotest.test_case "metric series" `Quick test_series;
    Alcotest.test_case "perfetto export shape" `Quick test_to_chrome_shape;
    Alcotest.test_case "batch detect matches stream" `Quick
      test_batch_detect_matches_stream ]
