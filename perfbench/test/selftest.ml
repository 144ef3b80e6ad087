(* Self-tests of the benchmark's own machinery:

   - the percentile helper never reports a tail it cannot back with ten
     samples;
   - a cost planted in one layer of the ladder shows up in that layer's
     self time and not in its neighbours';
   - the traced server run reproduces Server.run's counters and latency
     histograms exactly, at the pinned seeds and at an unpinned one.

   Exits 1 if any check failed. *)

open Perfbench
module Kernel = Kernel_sim.Kernel

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* ------------------------------------------------------------ stats *)

let test_stats () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p99 withheld below 1000 samples" (Stats.p99 (samples 999) = None);
  check "p99 at 1000 samples is the 990th value"
    (Stats.p99 (samples 1000) = Some 990.);
  let s = Stats.summarize (samples 200) in
  check "200 samples: tail is p90, not p99"
    (s.Stats.tail_permille = 900 && s.Stats.tail = 180. && s.Stats.n = 200);
  check "median of 1..200" (s.Stats.median = 100.);
  let s = Stats.summarize (samples 15) in
  check "15 samples: no tail at all" (s.Stats.tail_permille = 0);
  let s = Stats.summarize (samples 20000) in
  check "20000 samples: p99.9" (s.Stats.tail_permille = 999)

(* ------------------------------------------------ planted layer cost *)

let ns name ms =
  match List.find_opt (fun (n, _, _) -> n = name) ms with
  | Some (_, _, v) -> v
  | None -> invalid_arg name

let ladder ?plant () =
  let l = Work.setup_warm ~seed:42 in
  Rungs.warm_metrics
    (Rungs.measure ?plant ~rounds:400 ~calls:4096 (Rungs.warm_rungs l)
       ~n_addrs:(Array.length l.Work.eas))

(* host ns of one [Rungs.spin n] *)
let spin_ns n =
  let calls = 100_000 in
  Stats.median
    (Array.init 15 (fun _ ->
         let t0 = Clock.now () in
         for _ = 1 to calls do
           Rungs.spin n
         done;
         float_of_int (Clock.now () - t0) /. float_of_int calls))

(* The spin planted in every rung that reaches Memsys must raise the top
   rung (kernel.touch) by about its own cost, and all of that increase
   must be attributed to memsys.self — none to the layers around it.  The
   spin is several times a warm call's cost: an out-of-order core hides a
   short independent spin under the call's own latency. *)
let test_planted () =
  let iters = 200 in
  let spin = spin_ns iters in
  let plain = ladder () in
  let planted = ladder ~plant:("memsys", iters) () in
  let delta name = ns name planted -. ns name plain in
  let top = delta "kernel.touch_ns" in
  Printf.printf "planted spin %.1f ns alone; kernel.touch_ns rose %.1f ns\n" spin
    top;
  List.iter
    (fun n -> Printf.printf "  %-22s %+7.2f ns\n" n (delta n))
    [ "cache.access_ns"; "memsys.self_ns"; "mmu.self_ns"; "kernel.touch_self_ns" ];
  check "planted cost is visible at the top rung" (top > 0.5 *. spin);
  check "planted cost lands in memsys.self_ns"
    (delta "memsys.self_ns" > 0.75 *. top && delta "memsys.self_ns" < 1.25 *. top);
  List.iter
    (fun n ->
      check
        (Printf.sprintf "planted cost stays out of %s" n)
        (Float.abs (delta n) < 0.25 *. top))
    [ "cache.access_ns"; "mmu.self_ns"; "kernel.touch_self_ns" ]

(* ------------------------------------------- traced server run = plain *)

let test_reproduction seed =
  let requests = Work.server_requests in
  let plain = Work.server_run (Work.server_boot ~seed) ~requests in
  let k = Work.server_boot ~seed in
  let before = Ppc.Perf.snapshot (Kernel.perf k) in
  let tr = Reqtrace.create () in
  let hist, kind_hists =
    Reqtrace.run tr k ~params:(Work.server_params ~requests)
  in
  let traced =
    { Work.perf = Ppc.Perf.diff ~after:(Ppc.Perf.snapshot (Kernel.perf k)) ~before;
      hist;
      kind_hists }
  in
  check
    (Printf.sprintf "traced server run reproduces Server.run at seed %d" seed)
    (Work.same_server_run plain traced);
  check
    (Printf.sprintf "traced server run counted %d requests at seed %d" requests
       seed)
    (tr.Reqtrace.calls.(Reqtrace.request) = requests);
  match List.assoc_opt seed Work.pinned_server with
  | Some (digest, _) ->
      check
        (Printf.sprintf "traced server run matches the pinned digest at seed %d"
           seed)
        (Work.server_digest traced = digest)
  | None -> ()

let () =
  test_stats ();
  List.iter test_reproduction [ 42; Work.heldout_seed; 5 ];
  test_planted ();
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
