(* The flight recorder core: one-int-compare disabled cost, fixed-cadence
   sampling, deterministic decimation under the retention cap, in-place
   gauge replacement, the streaming hook, arming through the boot
   configuration — and the free-ness contract (an armed run's tables
   are byte-identical to a bare run at the same seed). *)
open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Experiments = Mmu_tricks.Experiments
module Runner = Mmu_tricks.Runner

let mk () =
  let perf = Perf.create () in
  (perf, Recorder.create ~perf)

(* --- lifecycle --------------------------------------------------------- *)

let test_disabled_by_default () =
  let _, r = mk () in
  Alcotest.(check bool) "disabled" false (Recorder.enabled r);
  Alcotest.(check int) "no samples" 0 (Recorder.length r);
  (* [next_sample] is the Memsys.charge fast-path read: must be max_int *)
  Alcotest.(check int) "sentinel" max_int r.Recorder.next_sample

let test_enable_validates () =
  let _, r = mk () in
  Alcotest.check_raises "every < 1"
    (Invalid_argument "Recorder.enable: every must be >= 1") (fun () ->
      Recorder.enable ~every:0 r);
  Alcotest.check_raises "cap < 2"
    (Invalid_argument "Recorder.enable: cap must be >= 2") (fun () ->
      Recorder.enable ~cap:1 r)

let test_cadence_scheduling () =
  let perf, r = mk () in
  perf.Perf.cycles <- 250;
  Recorder.enable ~every:100 ~cap:8 r;
  Alcotest.(check bool) "enabled" true (Recorder.enabled r);
  Alcotest.(check int) "first sample at cycles + every" 350
    r.Recorder.next_sample;
  perf.Perf.cycles <- 410;
  Recorder.take_sample r;
  Alcotest.(check int) "rescheduled from the actual cycle" 510
    r.Recorder.next_sample;
  Alcotest.(check int) "one retained" 1 (Recorder.length r);
  Alcotest.(check int) "snapshot carries the cycle" 410
    (Recorder.sample r 0).Recorder.s_cycle;
  Recorder.disable r;
  Alcotest.(check int) "disable restores the sentinel" max_int
    r.Recorder.next_sample

let test_snapshot_immutable () =
  let perf, r = mk () in
  Recorder.enable ~every:10 ~cap:4 r;
  perf.Perf.cycles <- 10;
  perf.Perf.itlb_misses <- 3;
  Recorder.take_sample r;
  perf.Perf.itlb_misses <- 99;
  Alcotest.(check int) "sample is a snapshot, not the live record" 3
    (Recorder.sample r 0).Recorder.s_perf.Perf.itlb_misses

(* --- decimation -------------------------------------------------------- *)

let test_decimation () =
  let perf, r = mk () in
  Recorder.enable ~every:10 ~cap:4 r;
  for i = 1 to 9 do
    perf.Perf.cycles <- i * 10;
    Recorder.take_sample r
  done;
  (* cap 4: the stream halves (keep every other sample, double the
     cadence) each time it fills — 9 samples decimate three times *)
  Alcotest.(check int) "total counts every sample" 9 (Recorder.total r);
  Alcotest.(check int) "retained under cap" 3 (Recorder.length r);
  Alcotest.(check (list int)) "kept samples are deterministic"
    [ 10; 70; 90 ]
    (List.map (fun s -> s.Recorder.s_cycle) (Recorder.samples r));
  Alcotest.(check int) "cadence doubled per decimation" 80 (Recorder.every r)

(* Reference model of retention: append, halving to the even indices
   whenever [cap] samples are held. *)
let decimation_model ~cap cycles =
  List.fold_left
    (fun kept c ->
      let kept =
        if List.length kept >= cap then
          List.filteri (fun i _ -> i mod 2 = 0) kept
        else kept
      in
      kept @ [ c ])
    [] cycles

let test_retention () =
  let n = Recorder.default_cap + 904 in
  let cycles = List.init n (fun i -> (i + 1) * 10) in
  let run ?cap () =
    let perf, r = mk () in
    Recorder.enable ~every:10 ?cap r;
    List.iter
      (fun c ->
        perf.Perf.cycles <- c;
        Recorder.take_sample r)
      cycles;
    (r, List.map (fun s -> s.Recorder.s_cycle) (Recorder.samples r))
  in
  let unbounded, kept = run ~cap:max_int () in
  Alcotest.(check (list int)) "unbounded: every sample kept" cycles kept;
  Alcotest.(check int) "unbounded: cadence never doubles" 10
    (Recorder.every unbounded);
  let capped, kept = run () in
  Alcotest.(check (list int)) "default cap: decimates as before"
    (decimation_model ~cap:Recorder.default_cap cycles)
    kept;
  Alcotest.(check int) "default cap: one halving" 20 (Recorder.every capped);
  Alcotest.(check int) "default cap: total counts every sample" n
    (Recorder.total capped)

let test_streaming_hook_sees_everything () =
  let perf, r = mk () in
  Recorder.enable ~every:10 ~cap:4 r;
  let streamed = ref [] in
  Recorder.set_on_sample r (fun rcd s ->
      Alcotest.(check bool) "hook gets the owning recorder" true (rcd == r);
      streamed := s.Recorder.s_cycle :: !streamed);
  for i = 1 to 9 do
    perf.Perf.cycles <- i * 10;
    Recorder.take_sample r
  done;
  (* decimation coarsens retention, never the stream *)
  Alcotest.(check (list int)) "full stream at original cadence"
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (List.rev !streamed)

(* --- gauge sources ----------------------------------------------------- *)

let test_gauge_replace_in_place () =
  let perf, r = mk () in
  Recorder.add_source r ~name:"a" (fun () -> [| 1 |]);
  Recorder.add_source r ~name:"b" (fun () -> [| 2 |]);
  Recorder.add_source r ~name:"a" (fun () -> [| 111 |]);
  Alcotest.(check (list string)) "order undisturbed" [ "a"; "b" ]
    (Recorder.source_names r);
  Recorder.enable ~every:10 ~cap:4 r;
  perf.Perf.cycles <- 10;
  Recorder.take_sample r;
  Alcotest.(check bool) "replacement source is live" true
    ((Recorder.sample r 0).Recorder.s_gauges = [ ("a", [| 111 |]); ("b", [| 2 |]) ])

let test_sources_lazy () =
  let _, r = mk () in
  let calls = ref 0 in
  Recorder.add_source r ~name:"expensive" (fun () ->
      incr calls;
      [| 0 |]);
  Alcotest.(check int) "never called until a sample fires" 0 !calls

(* --- boot registry ----------------------------------------------------- *)

let boot () =
  Kernel.boot ~machine:Machine.ppc604_185 ~policy:Policy.optimized ~seed:7 ()

let test_boot_registry () =
  let attached = ref [] in
  let k1, k2, drained, again =
    Runner.armed
      { Boot.plain with
        Boot.record = Some (77, fun r -> attached := r :: !attached) }
      (fun () ->
        let k1 = boot () in
        let k2 = boot () in
        let drained = Kernel.drain_smp_registered () in
        (k1, k2, drained, Kernel.drain_smp_registered ()))
  in
  let r1 = Kernel.recorder k1 and r2 = Kernel.recorder k2 in
  Alcotest.(check bool) "boot-armed recorders start enabled" true
    (Recorder.enabled r1 && Recorder.enabled r2);
  Alcotest.(check int) "boot cadence applied" 77 (Recorder.every r1);
  Alcotest.(check bool) "attach hook saw both, in creation order" true
    (List.length !attached = 2
    && List.for_all2 ( == ) (List.rev !attached) [ r1; r2 ]);
  Alcotest.(check bool) "registry collects both, in boot order" true
    (List.length drained = 2 && List.for_all2 ( == ) drained [ k1; k2 ]);
  Alcotest.(check int) "one drain empties the registry" 0 (List.length again);
  let k3 = boot () in
  Alcotest.(check bool) "post-disarm recorders start disabled" false
    (Recorder.enabled (Kernel.recorder k3));
  Alcotest.(check int) "post-disarm boots are not registered" 0
    (List.length (Kernel.drain_smp_registered ()))

(* --- observation-only -------------------------------------------------- *)

let test_recording_is_free () =
  (* the byte-identity contract: an armed run's tables equal a bare
     run's at the same seed — sampling charges no cycles and draws no
     RNG *)
  let run () = (Option.get (Experiments.find "E13")).Experiments.run ~seed:7 () in
  let bare = run () in
  let recorded, drained =
    Runner.armed
      { Boot.plain with Boot.record = Some (50_000, ignore) }
      (fun () ->
        let t = run () in
        (t, List.map Kernel.recorder (Kernel.drain_smp_registered ())))
  in
  Alcotest.(check bool) "tables byte-identical under recording" true
    (bare = recorded);
  Alcotest.(check bool) "and the run really was recorded" true
    (drained <> [] && List.exists (fun r -> Recorder.total r > 0) drained)

let suite =
  [ Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "enable validates" `Quick test_enable_validates;
    Alcotest.test_case "cadence scheduling" `Quick test_cadence_scheduling;
    Alcotest.test_case "snapshot immutable" `Quick test_snapshot_immutable;
    Alcotest.test_case "decimation" `Quick test_decimation;
    Alcotest.test_case "retention past the default cap" `Quick
      test_retention;
    Alcotest.test_case "streaming hook sees everything" `Quick
      test_streaming_hook_sees_everything;
    Alcotest.test_case "gauge replace in place" `Quick
      test_gauge_replace_in_place;
    Alcotest.test_case "sources lazy until armed" `Quick test_sources_lazy;
    Alcotest.test_case "boot registry" `Quick test_boot_registry;
    Alcotest.test_case "recording is free (E13)" `Slow
      test_recording_is_free ]
