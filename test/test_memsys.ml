(* Memory system: cycle charging and counter routing. *)
open Ppc

let mk () =
  let machine = Machine.ppc604_185 in
  let perf = Perf.create () in
  (Memsys.create ~machine ~perf, perf, machine)

let test_miss_then_hit_costs () =
  let m, p, machine = mk () in
  Memsys.data_ref m ~source:Cache.User ~inhibited:false ~write:false 0x5000;
  Alcotest.(check int) "miss costs memory latency"
    machine.Machine.mem_latency p.Perf.cycles;
  Alcotest.(check int) "one miss" 1 p.Perf.dcache_misses;
  Memsys.data_ref m ~source:Cache.User ~inhibited:false ~write:false 0x5004;
  Alcotest.(check int) "hit costs one cycle"
    (machine.Machine.mem_latency + 1)
    p.Perf.cycles;
  Alcotest.(check int) "two accesses" 2 p.Perf.dcache_accesses

let test_bypass_costs_latency () =
  let m, p, machine = mk () in
  Memsys.data_ref m ~source:Cache.User ~inhibited:true ~write:true 0x5000;
  Alcotest.(check int) "bypass costs latency" machine.Machine.mem_latency
    p.Perf.cycles;
  Alcotest.(check int) "counted as bypass" 1 p.Perf.dcache_bypasses;
  Alcotest.(check int) "not a miss" 0 p.Perf.dcache_misses

let test_inst_ref () =
  let m, p, _ = mk () in
  Memsys.inst_ref m 0xC0010000;
  Memsys.inst_ref m 0xC0010004;
  Alcotest.(check int) "icache accesses" 2 p.Perf.icache_accesses;
  Alcotest.(check int) "one icache miss" 1 p.Perf.icache_misses

let test_instructions () =
  let m, p, _ = mk () in
  Memsys.instructions m 100;
  Alcotest.(check int) "instructions counted" 100 p.Perf.instructions;
  Alcotest.(check int) "one cycle each" 100 p.Perf.cycles

let test_idle_routing () =
  let m, p, _ = mk () in
  Memsys.instructions m 10;
  Memsys.set_idle m true;
  Memsys.instructions m 7;
  Memsys.set_idle m false;
  Memsys.instructions m 3;
  Alcotest.(check int) "total cycles" 20 p.Perf.cycles;
  Alcotest.(check int) "idle cycles" 7 p.Perf.idle_cycles;
  Alcotest.(check int) "busy" 13 (Perf.busy_cycles p)

let test_copy_lines () =
  let m, p, _ = mk () in
  Memsys.copy_lines m ~source:Cache.Kernel ~src:0x10000 ~dst:0x20000
    ~bytes:4096;
  (* 128 reads + 128 writes *)
  Alcotest.(check int) "256 data references" 256 p.Perf.dcache_accesses

let test_separate_caches () =
  let m, p, _ = mk () in
  (* same physical line through I and D caches: both must miss once *)
  Memsys.inst_ref m 0x7000;
  Memsys.data_ref m ~source:Cache.Kernel ~inhibited:false ~write:false 0x7000;
  Alcotest.(check int) "icache miss" 1 p.Perf.icache_misses;
  Alcotest.(check int) "dcache miss" 1 p.Perf.dcache_misses

(* One fixed sequence through every charging entry point: D-cache hits,
   misses and dirty write-backs, instruction fetches, instruction
   charges, a trap stall, a software htab probe's line run and a dcbz
   page clear.  On the 604's 4-way, 256-set D-cache, addresses 8 KB
   apart share a set. *)
let charge_sequence m =
  for i = 0 to 299 do
    (* six stored lines cycling through one set: every store misses and
       evicts a dirty line *)
    Memsys.data_ref m ~source:Cache.User ~inhibited:false ~write:true
      (0x40000 + ((i mod 6) * 8192));
    Memsys.data_ref m ~source:Cache.User ~inhibited:false ~write:false 0x80020;
    Memsys.inst_ref m (0xC0010000 + ((i mod 64) * Addr.line_size));
    Memsys.instructions m 7;
    Memsys.stall m 5;
    Memsys.instructions m 3;
    Memsys.table_run m ~instr:4 ~source:Cache.Htab ~inhibited:false
      ~write:false
      (0x300100 + ((i mod 16) * 8))
      (1 + (i mod 4));
    Memsys.zero_lines m ~source:Cache.Kernel ~inhibited:false
      (0x100040 + ((i mod 8) * 8192))
      ~lines:(1 + (i mod 3))
  done

let timeline_every = 97
let recorder_every = 211

(* [charge_sequence] with the chosen recorders armed at cycle 0: each
   recorder's firing cycles (empty when unarmed), and the counters. *)
let run_sampled ~timeline ~recorder =
  let m, p, _ = mk () in
  if timeline then Memsys.arm_timeline m ~every:timeline_every;
  if recorder then Recorder.enable (Memsys.recorder m) ~every:recorder_every;
  charge_sequence m;
  let cycles r =
    List.map (fun s -> s.Recorder.s_cycle) (Recorder.samples r)
  in
  (cycles (Memsys.timeline m), cycles (Memsys.recorder m), p)

(* A recorder fires on the first charge that reaches its next sample,
   and no single charge exceeds the memory latency: from arming at cycle
   0, every gap between firings is at least [every] and under
   [every + latency], and the run ends less than [every] past the last
   one. *)
let on_cadence ~every ~latency ~total fires =
  let rec go prev = function
    | [] -> total - prev < every
    | f :: rest -> f - prev >= every && f - prev < every + latency && go f rest
  in
  go 0 fires

let test_sampler_dispatch () =
  let latency = Machine.ppc604_185.Machine.mem_latency in
  let timeline_alone, no_recorder, p_timeline =
    run_sampled ~timeline:true ~recorder:false
  in
  let no_timeline, recorder_alone, p_recorder =
    run_sampled ~timeline:false ~recorder:true
  in
  let timeline_both, recorder_both, p =
    run_sampled ~timeline:true ~recorder:true
  in
  Alcotest.(check bool) "the sequence hits, misses and writes back" true
    (p.Perf.dcache_misses > 0
    && p.Perf.dcache_accesses > p.Perf.dcache_misses
    && p.Perf.dcache_writebacks > 0);
  Alcotest.(check bool) "an unarmed recorder never fires" true
    (no_recorder = [] && no_timeline = []);
  List.iter
    (fun (name, every, alone, p_alone, both) ->
      Alcotest.(check (list int))
        (name ^ ": same cycles alone and with both armed")
        alone both;
      Alcotest.(check bool)
        (name ^ ": fires once per cadence")
        true
        (on_cadence ~every ~latency ~total:p_alone.Perf.cycles alone))
    [ ("timeline", timeline_every, timeline_alone, p_timeline, timeline_both);
      ("recorder", recorder_every, recorder_alone, p_recorder, recorder_both)
    ]

let suite =
  [ Alcotest.test_case "miss then hit costs" `Quick test_miss_then_hit_costs;
    Alcotest.test_case "bypass costs latency" `Quick
      test_bypass_costs_latency;
    Alcotest.test_case "instruction fetch" `Quick test_inst_ref;
    Alcotest.test_case "instruction charging" `Quick test_instructions;
    Alcotest.test_case "idle routing" `Quick test_idle_routing;
    Alcotest.test_case "copy lines" `Quick test_copy_lines;
    Alcotest.test_case "split I/D caches" `Quick test_separate_caches;
    Alcotest.test_case "sampler dispatch through charge" `Quick
      test_sampler_dispatch ]
