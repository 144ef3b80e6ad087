type t = {
  machine : Machine.t;
  perf : Perf.t;
  trace : Trace.t;
  profile : Profile.t;
  span : Span.t;
  recorder : Recorder.t;
  icache : Cache.t;
  dcache : Cache.t;
  mutable idle : bool;
  timeline : Recorder.t;  (* last, so the hit path's field offsets stay put *)
}

(* Every gauge goes on both recorders, in the same order. *)
let add_gauge t ~name f =
  Recorder.add_source t.recorder ~name f;
  Recorder.add_source t.timeline ~name f

(* The timeline keeps every sample: the trace and profile views it
   serves never decimate. *)
let arm_timeline t ~every =
  if every > 0 then Recorder.enable ~every ~cap:max_int t.timeline

let create ~machine ~perf =
  let timeline = Recorder.create ~perf in
  let profile = Profile.create ~timeline in
  let span = Span.create ~perf in
  let t =
    { machine;
      perf;
      trace = Trace.create ~timeline;
      profile;
      span;
      recorder = Recorder.create ~perf;
      icache =
        Cache.create ~bytes:machine.Machine.icache.Machine.cache_bytes
          ~ways:machine.Machine.icache.Machine.cache_ways;
      dcache =
        Cache.create ~bytes:machine.Machine.dcache.Machine.cache_bytes
          ~ways:machine.Machine.dcache.Machine.cache_ways;
      idle = false;
      timeline }
  in
  (* Span percentiles-so-far as a gauge: completed requests and the
     running p50/p99 latency.  All zeros outside server workloads. *)
  add_gauge t ~name:"span" (fun () ->
      let h = Span.hist_latency span in
      [| Span.completed span;
         Hist.percentile h 0.50;
         Hist.percentile h 0.99 |]);
  (* Profiler attribution snapshot: the top accounts by reload cost,
     flattened at stride 5 (pid, seg, kind, count, cost) so incident
     records can say who owned the misses.  Empty until profiling is
     armed alongside recording. *)
  add_gauge t ~name:"attribution" (fun () ->
      if not (Profile.enabled profile) then [||]
      else begin
        let rows =
          List.sort
            (fun a b ->
              compare b.Profile.r_cost a.Profile.r_cost)
            (Profile.attribution profile)
        in
        let top = ref [] and n = ref 0 in
        List.iter
          (fun r ->
            if !n < 8 then begin
              incr n;
              top := r :: !top
            end)
          rows;
        let a = Array.make (!n * 5) 0 in
        List.iteri
          (fun i r ->
            let b = (!n - 1 - i) * 5 in
            a.(b) <- r.Profile.r_pid;
            a.(b + 1) <- r.Profile.r_seg;
            a.(b + 2) <-
              (match r.Profile.r_kind with
              | Profile.Itlb -> 0
              | Profile.Dtlb -> 1
              | Profile.Htab_miss -> 2);
            a.(b + 3) <- r.Profile.r_count;
            a.(b + 4) <- r.Profile.r_cost)
          !top;
        a
      end);
  (* Arm what the boot configuration names, before the boot charges a
     cycle, so sample cadences start from cycle 0. *)
  let boot = Boot.current () in
  if boot.Boot.trace > 0 then Trace.enable ~ring:boot.Boot.trace t.trace;
  if boot.Boot.profile then Profile.enable profile;
  arm_timeline t ~every:boot.Boot.timeline;
  if boot.Boot.spans then Span.enable span;
  Option.iter
    (fun (every, attach) ->
      Recorder.enable ~every t.recorder;
      attach t.recorder)
    boot.Boot.record;
  t

let machine t = t.machine
let[@inline] perf t = t.perf
let[@inline] trace t = t.trace
let profile t = t.profile
let span t = t.span
let recorder t = t.recorder
let timeline t = t.timeline
let icache t = t.icache
let dcache t = t.dcache

let set_idle t b = t.idle <- b

(* The two recorders' dispatch, out of line: [charge] only calls it
   once the clock has reached either recorder's [next_sample]. *)
let[@inline never] take_samples t =
  if t.perf.Perf.cycles >= t.timeline.Recorder.next_sample then
    Recorder.take_sample t.timeline;
  if t.perf.Perf.cycles >= t.recorder.Recorder.next_sample then
    Recorder.take_sample t.recorder

(* Every simulated cycle passes through here, inlined into each caller.
   A recorder's [next_sample] is [max_int] unless it is armed, so with
   neither armed the cost past the clock update is two compares. *)
let[@inline] charge t cycles =
  let now = t.perf.Perf.cycles + cycles in
  t.perf.Perf.cycles <- now;
  if t.idle then t.perf.Perf.idle_cycles <- t.perf.Perf.idle_cycles + cycles;
  if
    now >= t.timeline.Recorder.next_sample
    || now >= t.recorder.Recorder.next_sample
  then take_samples t

(* A write-back of a dirty victim is a posted store: it overlaps with
   execution, so we charge half the memory latency. *)
let writeback_cost t = t.machine.Machine.mem_latency / 2

(* The cycle arithmetic of every data reference, once.  [n] same-line
   references whose first one had result [r] (see [Cache.access_run]:
   the rest hit after a hit or a fill and bypass after a bypass), with
   [instr] instruction cycles riding on each: their cycles, short of a
   dirty victim's write-back, with the miss and bypass counters
   bumped. *)
let[@inline] run_cycles t ~instr (r : Cache.result) n =
  let p = t.perf in
  match r with
  | Cache.Hit -> n * (instr + Cost.cache_hit_cycles)
  | Cache.Miss _ ->
      p.Perf.dcache_misses <- p.Perf.dcache_misses + 1;
      (n * instr) + t.machine.Machine.mem_latency
      + ((n - 1) * Cost.cache_hit_cycles)
  | Cache.Bypass ->
      p.Perf.dcache_bypasses <- p.Perf.dcache_bypasses + n;
      n * (instr + t.machine.Machine.mem_latency)

(* The write-back a reference with result [r] owes, counted: nothing
   unless its fill evicted a dirty line. *)
let[@inline] writeback_cycles t (r : Cache.result) =
  match r with
  | Cache.Miss { dirty_writeback = true } ->
      t.perf.Perf.dcache_writebacks <- t.perf.Perf.dcache_writebacks + 1;
      writeback_cost t
  | Cache.Hit | Cache.Miss _ | Cache.Bypass -> 0

(* The same, charged.  A write-back stays a charge of its own, as it
   always was, so a sample can still fall between the two. *)
let[@inline] charge_writeback t r =
  let wb = writeback_cycles t r in
  if wb > 0 then charge t wb

let[@inline] charge_run t ~instr r n =
  charge t (run_cycles t ~instr r n);
  charge_writeback t r

(* A data reference's miss or bypass, out of line: the callers inline a
   hit themselves and call these for the rest. *)
let[@inline never] charge_data t r = charge_run t ~instr:0 r 1
let[@inline never] data_cycles t r =
  run_cycles t ~instr:0 r 1 + writeback_cycles t r

let[@inline] data_ref t ~source ~inhibited ~write pa =
  let p = t.perf in
  p.Perf.dcache_accesses <- p.Perf.dcache_accesses + 1;
  match Cache.access t.dcache ~source ~inhibited ~write pa with
  | Cache.Hit -> charge t Cost.cache_hit_cycles
  | (Cache.Miss _ | Cache.Bypass) as r -> charge_data t r

let[@inline] data_ref_cycles t ~source ~inhibited ~write pa =
  let p = t.perf in
  p.Perf.dcache_accesses <- p.Perf.dcache_accesses + 1;
  match Cache.access t.dcache ~source ~inhibited ~write pa with
  | Cache.Hit -> Cost.cache_hit_cycles
  | (Cache.Miss _ | Cache.Bypass) as r -> data_cycles t r

let[@inline] inst_ref_cycles t pa =
  let p = t.perf in
  p.Perf.icache_accesses <- p.Perf.icache_accesses + 1;
  match
    Cache.access t.icache ~source:Cache.Kernel ~inhibited:false ~write:false
      pa
  with
  | Cache.Hit -> Cost.cache_hit_cycles
  | Cache.Miss _ | Cache.Bypass ->
      p.Perf.icache_misses <- p.Perf.icache_misses + 1;
      t.machine.Machine.mem_latency

let inst_ref t pa = charge t (inst_ref_cycles t pa)

(* One [dcbz], as a page clear's per-line sequence charges it. *)
let dcbz t ~source pa =
  let p = t.perf in
  p.Perf.dcache_accesses <- p.Perf.dcache_accesses + 1;
  match Cache.allocate_zero t.dcache ~source pa with
  | Cache.Hit -> charge t Cost.dcbz_cycles
  | Cache.Miss _ as r ->
      charge t Cost.dcbz_cycles;
      charge_writeback t r
  | Cache.Bypass ->
      (* locked cache: the zeroing goes to memory *)
      p.Perf.dcache_bypasses <- p.Perf.dcache_bypasses + 1;
      charge t t.machine.Machine.mem_latency

(* A software-prefetch hint (dcbt, §10.2): starts the fill early so the
   demand access hits; the fill itself overlaps execution. *)
let prefetch t ~source pa =
  ignore (Cache.access t.dcache ~source ~inhibited:false ~write:false pa
           : Cache.result);
  charge t Cost.prefetch_cycles

let set_cache_locked t b =
  Cache.set_locked t.icache b;
  Cache.set_locked t.dcache b

let[@inline] instructions_cycles t n =
  t.perf.Perf.instructions <- t.perf.Perf.instructions + n;
  n

let[@inline] instructions t n = charge t (instructions_cycles t n)

let[@inline] stall t n = charge t n

(* Either recorder armed?  While true, fused charges must fall back to
   the historical charge-by-charge sequence so samples keep firing at
   the same cycle counts with the same intermediate counter values
   (experiment tables average over sample contents). *)
let[@inline] sampling t =
  t.timeline.Recorder.next_sample <> max_int
  || t.recorder.Recorder.next_sample <> max_int

let[@inline] observed t =
  Trace.enabled t.trace || Profile.enabled t.profile || Span.enabled t.span
  || sampling t

(* The references a run stands for, one by one, for while a recorder is
   armed: each counts, charges its instructions and then its data
   reference, so every sample sees the counters it always saw. *)
let[@inline never] table_refs t ~instr ~source ~inhibited ~write pa n =
  let p = t.perf in
  for _ = 1 to n do
    p.Perf.mem_refs <- p.Perf.mem_refs + 1;
    if instr > 0 then instructions t instr;
    data_ref t ~source ~inhibited ~write pa
  done

(* Unarmed, the run's counters move by [n] at once and one charge
   covers the lot: one set lookup, one deadline check. *)
let[@inline] table_run_cycles t ~instr ~source ~inhibited ~write pa n =
  let p = t.perf in
  p.Perf.mem_refs <- p.Perf.mem_refs + n;
  p.Perf.instructions <- p.Perf.instructions + (instr * n);
  p.Perf.dcache_accesses <- p.Perf.dcache_accesses + n;
  let r = Cache.access_run t.dcache ~source ~inhibited ~write pa n in
  run_cycles t ~instr r n + writeback_cycles t r

let[@inline] table_run t ~instr ~source ~inhibited ~write pa n =
  if sampling t then table_refs t ~instr ~source ~inhibited ~write pa n
  else charge t (table_run_cycles t ~instr ~source ~inhibited ~write pa n)

let zero_lines t ~source ~inhibited pa ~lines =
  if sampling t then
    for k = 0 to lines - 1 do
      let pa = pa + (k * Addr.line_size) in
      if inhibited then data_ref t ~source ~inhibited:true ~write:true pa
      else dcbz t ~source pa
    done
  else begin
    let p = t.perf in
    let latency = t.machine.Machine.mem_latency in
    p.Perf.dcache_accesses <- p.Perf.dcache_accesses + lines;
    if inhibited then begin
      p.Perf.dcache_bypasses <- p.Perf.dcache_bypasses + lines;
      charge t (lines * latency)
    end
    else begin
      let to_memory = Cache.zero_lines t.dcache ~source pa ~lines in
      if Cache.is_locked t.dcache then begin
        p.Perf.dcache_bypasses <- p.Perf.dcache_bypasses + to_memory;
        charge t
          (((lines - to_memory) * Cost.dcbz_cycles) + (to_memory * latency))
      end
      else begin
        p.Perf.dcache_writebacks <- p.Perf.dcache_writebacks + to_memory;
        charge t ((lines * Cost.dcbz_cycles) + (to_memory * writeback_cost t))
      end
    end
  end

let copy_lines t ~source ~src ~dst ~bytes =
  let lines = (bytes + Addr.line_size - 1) / Addr.line_size in
  for i = 0 to lines - 1 do
    data_ref t ~source ~inhibited:false ~write:false
      (src + (i * Addr.line_size));
    data_ref t ~source ~inhibited:false ~write:true (dst + (i * Addr.line_size))
  done;
  (* one cycle per word moved *)
  instructions t (bytes / 4)
