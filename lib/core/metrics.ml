open Ppc

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let tlb_miss_rate p = ratio (Perf.tlb_misses p) (Perf.tlb_lookups p)

let htab_hit_rate p = ratio p.Perf.htab_hits p.Perf.htab_searches

let evict_ratio p = ratio p.Perf.htab_evicts p.Perf.htab_reloads

let dcache_miss_rate p = ratio p.Perf.dcache_misses p.Perf.dcache_accesses

let icache_miss_rate p = ratio p.Perf.icache_misses p.Perf.icache_accesses

let idle_fraction p = ratio p.Perf.idle_cycles p.Perf.cycles

let wall_us ~machine p =
  Cost.us_of_cycles ~mhz:machine.Machine.mhz p.Perf.cycles

let occupancy_pct ~occupancy ~capacity =
  if capacity = 0 then 0.0
  else 100.0 *. float_of_int occupancy /. float_of_int capacity

let pct_change ~from_v ~to_v =
  if from_v = 0.0 then 0.0 else 100.0 *. (to_v -. from_v) /. from_v

let speedup ~from_v ~to_v = if to_v = 0.0 then infinity else from_v /. to_v
