(* Request spans: recording is free (Perf counters and experiment tables
   identical with spans armed), Hist.merge is lawful (commutative,
   associative, percentile-stable), the request lifecycle attributes
   costs deterministically, and SLO verdicts gate on the exported
   document. *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Server = Workloads.Server
module Experiments = Mmu_tricks.Experiments
module Span_export = Mmu_tricks.Span_export
module Slo = Mmu_tricks.Slo
module Json = Mmu_tricks.Json
module Runner = Mmu_tricks.Runner

(* --- Hist.merge -------------------------------------------------------- *)

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.observe h) values;
  h

(* Everything observable about a histogram. *)
let signature h =
  (Hist.count h, Hist.sum h, Hist.max_value h, Hist.buckets h)

let test_merge_laws () =
  let a = hist_of [ 1; 5; 9; 120; 4096; 4097 ]
  and b = hist_of [ 0; 2; 77; 100_000 ]
  and c = hist_of [ 3; 3; 3 ] in
  let sig_a = signature a in
  Alcotest.(check bool) "commutative" true
    (signature (Hist.merge a b) = signature (Hist.merge b a));
  Alcotest.(check bool) "associative" true
    (signature (Hist.merge (Hist.merge a b) c)
    = signature (Hist.merge a (Hist.merge b c)));
  Alcotest.(check bool) "empty is identity" true
    (signature (Hist.merge a (Hist.create ())) = sig_a);
  Alcotest.(check bool) "inputs untouched" true (signature a = sig_a);
  let m = Hist.merge a b in
  Alcotest.(check int) "counts add" (Hist.count a + Hist.count b)
    (Hist.count m);
  Alcotest.(check int) "sums add" (Hist.sum a + Hist.sum b) (Hist.sum m);
  Alcotest.(check int) "max of maxima"
    (max (Hist.max_value a) (Hist.max_value b))
    (Hist.max_value m)

let test_merge_percentile_stability () =
  (* The percentiles of [merge a b] equal those of a histogram that
     observed the union directly — what lets Runner workers record
     independently and the parent report as if it saw every request. *)
  let rng = Rng.create ~seed:9 in
  let draw () = Rng.int rng 1_000_000 in
  let xs = List.init 500 (fun _ -> draw ()) in
  let ys = List.init 300 (fun _ -> draw ()) in
  let merged = Hist.merge (hist_of xs) (hist_of ys) in
  let union = hist_of (xs @ ys) in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%g stable" (p *. 100.))
        (Hist.percentile union p) (Hist.percentile merged p);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g interpolated stable" (p *. 100.))
        (Hist.percentile_interpolated union p)
        (Hist.percentile_interpolated merged p))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

(* --- the request lifecycle --------------------------------------------- *)

(* Drive a recorder by hand, advancing the perf clock directly, and
   check every charge lands on the request the scheduler is serving. *)
let test_request_lifecycle () =
  let perf = Perf.create () in
  let sp = Span.create ~perf in
  (* disabled: inert, ids are -1, nothing records *)
  Alcotest.(check int) "disabled begin" (-1)
    (Span.request_begin sp ~cls:0 ~arrival:0);
  Span.note_run sp ~cost:100;
  Alcotest.(check int) "disabled records nothing" 0 (Span.requests sp);
  Span.enable sp;
  Span.set_classes sp [| "m/compute"; "m/file" |];
  perf.Perf.cycles <- 1_000;
  let r0 = Span.request_begin sp ~cls:0 ~arrival:400 in
  Span.set_current_request sp r0;
  Span.syscall_begin sp;
  perf.Perf.cycles <- 1_300;
  Span.charge_reload sp ~cost:50 ~htab_missed:false;
  Span.charge_reload sp ~cost:80 ~htab_missed:true;
  Span.syscall_end sp;
  Span.note_run sp ~cost:200;
  (* a second request served by pid 7 after a context switch *)
  let r1 = Span.request_begin sp ~cls:1 ~arrival:1_300 in
  Span.bind_pid sp ~pid:7 ~rid:r1;
  Span.note_context_switch sp ~pid:7 ~cost:90;
  Alcotest.(check int) "switch rebinds current" r1
    (Span.current_request sp);
  Span.note_run sp ~cost:10;
  perf.Perf.cycles <- 2_000;
  Span.request_end sp r1;
  Span.note_context_switch sp ~pid:0 ~cost:60;  (* pid 0 unbound: -1 *)
  Alcotest.(check int) "unbound pid clears current" (-1)
    (Span.current_request sp);
  perf.Perf.cycles <- 2_400;
  Span.request_end sp r0;
  Span.request_end sp r0;  (* idempotent *)
  Alcotest.(check int) "requests" 2 (Span.requests sp);
  Alcotest.(check int) "completed" 2 (Span.completed sp);
  let q0 = Span.request sp r0 and q1 = Span.request sp r1 in
  Alcotest.(check int) "r0 latency includes queueing" 2_000
    q0.Span.q_latency;
  Alcotest.(check int) "r0 syscalls" 1 q0.Span.q_syscalls;
  Alcotest.(check int) "r0 syscall window" 300 q0.Span.q_syscall_cost;
  Alcotest.(check int) "r0 reloads" 2 q0.Span.q_reloads;
  Alcotest.(check int) "r0 reload cost" 130 q0.Span.q_reload_cost;
  Alcotest.(check int) "r0 htab subset" 1 q0.Span.q_htab_misses;
  Alcotest.(check int) "r0 htab cost" 80 q0.Span.q_htab_cost;
  Alcotest.(check int) "r0 run cost" 200 q0.Span.q_run_cost;
  Alcotest.(check int) "r1 latency" 700 q1.Span.q_latency;
  Alcotest.(check int) "r1 charged its switch" 1 q1.Span.q_ctxsw;
  Alcotest.(check int) "r1 switch cost" 90 q1.Span.q_ctxsw_cost;
  Alcotest.(check int) "r1 run cost" 10 q1.Span.q_run_cost;
  let t = Span.totals sp in
  Alcotest.(check int) "totals reload cost" 130 t.Span.t_reload_cost;
  Alcotest.(check int) "totals run cost" 210 t.Span.t_run_cost;
  (* slowest: latency descending, rid breaks ties *)
  (match Span.slowest sp ~top:5 with
  | [ s0; s1 ] ->
      Alcotest.(check int) "slowest first" r0 s0.Span.q_rid;
      Alcotest.(check int) "slowest second" r1 s1.Span.q_rid
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 2 slowest, got %d" (List.length l)));
  Alcotest.(check int) "overall hist saw both" 2
    (Hist.count (Span.hist_latency sp));
  match Span.class_hist sp 1 with
  | Some h -> Alcotest.(check int) "class hist saw r1" 1 (Hist.count h)
  | None -> Alcotest.fail "class 1 has no hist"

(* --- the Perfetto export -------------------------------------------------- *)

(* One process per recorder, one thread and one complete slice per
   finished request, timed in microseconds at the given clock; a
   request still in flight exports nothing. *)
let test_to_chrome () =
  let perf = Perf.create () in
  let sp = Span.create ~perf in
  Span.enable sp;
  Span.set_label sp "pool";
  Span.set_classes sp [| "m/compute"; "m/file" |];
  perf.Perf.cycles <- 1_000;
  let r0 = Span.request_begin sp ~cls:0 ~arrival:450 in
  let r1 = Span.request_begin sp ~cls:1 ~arrival:1_000 in
  let r2 = Span.request_begin sp ~cls:0 ~arrival:1_000 in
  perf.Perf.cycles <- 1_700;
  Span.request_end sp r1;
  perf.Perf.cycles <- 2_500;
  Span.request_end sp r0;
  let events =
    match
      Json.member "traceEvents"
        (Span_export.to_chrome ~mhz:200 ~name:"t" [ sp ])
    with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let str k e = Option.bind (Json.member k e) Json.to_string_opt in
  let int k e = Option.bind (Json.member k e) Json.to_int_opt in
  let flt k e = Option.bind (Json.member k e) Json.to_float_opt in
  let arg_name e = Option.bind (Json.member "args" e) (str "name") in
  let with_ph ph = List.filter (fun e -> str "ph" e = Some ph) events in
  let meta kind =
    List.filter (fun e -> str "name" e = Some kind) (with_ph "M")
  in
  (match meta "process_name" with
  | [ p ] ->
      Alcotest.(check (option int)) "process pid" (Some 1) (int "pid" p);
      Alcotest.(check (option string)) "process named by the label"
        (Some "t: pool") (arg_name p)
  | l -> Alcotest.failf "expected 1 process, got %d" (List.length l));
  Alcotest.(check (list (pair (option int) (option string))))
    "one thread per completed request"
    [ (Some (r0 + 1), Some "req 0 (m/compute)");
      (Some (r1 + 1), Some "req 1 (m/file)") ]
    (List.map (fun e -> (int "tid" e, arg_name e)) (meta "thread_name"));
  let slices = with_ph "X" in
  Alcotest.(check int) "one slice per completed request" 2 (List.length slices);
  List.iter2
    (fun e (rid, cls, arrival, latency) ->
      Alcotest.(check (option int)) "slice thread" (Some (rid + 1))
        (int "tid" e);
      Alcotest.(check (option string)) "slice class" (Some cls) (str "name" e);
      Alcotest.(check (option string)) "slice category" (Some "request")
        (str "cat" e);
      Alcotest.(check (option (float 1e-9))) "ts = arrival / mhz"
        (Some (float_of_int arrival /. 200.)) (flt "ts" e);
      Alcotest.(check (option (float 1e-9))) "dur = latency / mhz"
        (Some (float_of_int latency /. 200.)) (flt "dur" e))
    slices
    [ (r0, "m/compute", 450, 2_050); (r1, "m/file", 1_000, 700) ];
  Alcotest.(check bool) "nothing for the unfinished request" false
    (List.exists (fun e -> int "tid" e = Some (r2 + 1)) events)

(* --- recording is free ------------------------------------------------- *)

let perf_signature p =
  ( p.Perf.cycles,
    p.Perf.idle_cycles,
    p.Perf.mem_refs,
    Perf.tlb_misses p,
    p.Perf.htab_searches,
    Perf.cache_misses p,
    p.Perf.instructions,
    p.Perf.context_switches )

let small_params model =
  { Server.default_params with Server.model; Server.requests = 60 }

let test_spans_are_free () =
  (* Every service model, spans armed vs not, same seed: the Perf
     counters are byte-identical — observation only. *)
  List.iter
    (fun model ->
      let run armed =
        Boot.with_config { Boot.plain with Boot.spans = armed } (fun () ->
            let r =
              Server.measure ~machine:Machine.ppc604_185
                ~policy:Policy.optimized ~params:(small_params model)
                ~seed:11 ()
            in
            perf_signature r.Server.perf)
      in
      Alcotest.(check bool)
        (Server.model_name model ^ ": counters identical with spans on")
        true
        (run false = run true))
    [ Server.Fork_exec; Server.Pool; Server.Shared_mm ]

let test_server_table_identical_when_armed () =
  (* End to end through the registry: E18's rendered table is unchanged
     when the boot configuration arms spans, the kernels drained
     afterwards carry recorders that saw the requests, and one drain
     empties the registry.  Disarmed, boots are plain and unregistered. *)
  let e18 = Option.get (Experiments.find "E18") in
  let plain = e18.Experiments.run ~seed:42 () in
  Alcotest.(check bool) "disarmed: plain recorder" false
    (Span.enabled
       (Kernel.span
          (Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ())));
  Alcotest.(check int) "disarmed: nothing registered" 0
    (List.length (Kernel.drain_smp_registered ()));
  let spanned, recorders, again =
    Runner.armed
      { Boot.plain with Boot.spans = true }
      (fun () ->
        let t = e18.Experiments.run ~seed:42 () in
        let recorders = List.map Kernel.span (Kernel.drain_smp_registered ()) in
        (t, recorders, Kernel.drain_smp_registered ()))
  in
  Alcotest.(check bool) "table identical" true (plain = spanned);
  Alcotest.(check bool) "armed: every collected recorder enabled" true
    (recorders <> [] && List.for_all Span.enabled recorders);
  Alcotest.(check int) "one drain empties the registry" 0 (List.length again);
  let interesting = List.filter Span_export.interesting recorders in
  Alcotest.(check bool) "recorders saw requests" true (interesting <> []);
  List.iter
    (fun sp ->
      Alcotest.(check int)
        (Span.label sp ^ ": every request completed")
        (Span.requests sp) (Span.completed sp))
    interesting

(* --- SLO gating -------------------------------------------------------- *)

let spans_fixture () =
  (* One small armed server run, exported the way `experiment --spans`
     embeds it. *)
  Runner.armed
    { Boot.plain with Boot.spans = true }
    (fun () ->
      ignore
        (Server.measure ~machine:Machine.ppc604_185
           ~policy:Policy.optimized ~params:(small_params Server.Pool)
           ~seed:42 ~label:"optimized" ()
          : Server.result);
      Span_export.to_json
        (List.filter Span_export.interesting
           (List.map Kernel.span (Kernel.drain_smp_registered ()))))

let objective ?(cls = "overall") ?(metric = Slo.P99) ~budget () =
  { Slo.s_experiment = "E18"; s_config = "optimized"; s_class = cls;
    s_metric = metric; s_budget = budget }

let test_slo_verdicts () =
  let spans = [ ("E18", spans_fixture ()) ] in
  let eval objs =
    Slo.evaluate ~spans { Slo.d_seed = 42; d_objectives = objs }
  in
  (* generous budget passes and carries the measurement *)
  (match eval [ objective ~budget:max_int () ] with
  | [ v ] ->
      Alcotest.(check bool) "generous budget ok" true v.Slo.v_ok;
      Alcotest.(check bool) "measured present" true
        (match v.Slo.v_measured with Some m -> m > 0 | None -> false)
  | l -> Alcotest.fail (Printf.sprintf "1 verdict expected, got %d"
                          (List.length l)));
  (* a 1-cycle budget fails *)
  (match eval [ objective ~budget:1 ~metric:Slo.P999 () ] with
  | [ v ] -> Alcotest.(check bool) "tight budget fails" false v.Slo.v_ok
  | _ -> Alcotest.fail "1 verdict expected");
  (* coordinates the run never produced: fails with no measurement *)
  match
    eval
      [ { (objective ~budget:max_int ()) with Slo.s_config = "no-such" } ]
  with
  | [ v ] ->
      Alcotest.(check bool) "missing measurement fails" false v.Slo.v_ok;
      Alcotest.(check bool) "nothing measured" true
        (v.Slo.v_measured = None);
      Alcotest.(check bool) "so all_ok is false" false
        (Slo.all_ok [ v ])
  | _ -> Alcotest.fail "1 verdict expected"

let test_slo_doc_roundtrip () =
  let doc =
    { Slo.d_seed = 7;
      d_objectives =
        [ objective ~budget:123_000 ();
          objective ~cls:"pool/file" ~metric:Slo.P999 ~budget:9 () ] }
  in
  (match Slo.of_json (Slo.to_json doc) with
  | Ok doc' -> Alcotest.(check bool) "roundtrips" true (doc = doc')
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "experiments" [ "E18" ]
    (Slo.experiments doc)

let suite =
  [ Alcotest.test_case "Hist.merge laws" `Quick test_merge_laws;
    Alcotest.test_case "Hist.merge percentile stability" `Quick
      test_merge_percentile_stability;
    Alcotest.test_case "request lifecycle" `Quick test_request_lifecycle;
    Alcotest.test_case "spans are free (all models)" `Slow
      test_spans_are_free;
    Alcotest.test_case "experiment table identical under boot defaults"
      `Slow test_server_table_identical_when_armed;
    Alcotest.test_case "SLO verdicts" `Quick test_slo_verdicts;
    Alcotest.test_case "SLO document roundtrip" `Quick
      test_slo_doc_roundtrip;
    Alcotest.test_case "Perfetto export" `Quick test_to_chrome ]
