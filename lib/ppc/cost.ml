let cache_hit_cycles = 1
let tlb_miss_trap_cycles = 32
let htab_miss_trap_cycles = 91

(* A full hardware search touches 16 PTEs; with a ~35-cycle memory and the
   first PTEG typically missing the cache, total lands in the neighborhood
   of the measured "up to 120 instruction cycles". *)
let hw_search_overhead_cycles = 24

let sw_reload_fast_instr = 20
let sw_hash_setup_instr = 24
let sw_reload_slow_instr = 160
let sw_reload_slow_stack_refs = 16

let htab_insert_fast_instr = 30
let htab_insert_slow_instr = 190
let htab_insert_slow_stack_refs = 16

(* SMP shootdown/IPI model.  The PPC 603/604 have no broadcast tlbie
   snooping in our configuration, so a cross-CPU invalidate is a
   software IPI round: the initiator writes the interrupt controller
   and spins for acknowledgements; each remote CPU takes an external
   interrupt, runs a short handler and executes the invalidate
   locally.  Charged on the single serialized clock. *)
let ipi_send_cycles = 40
let ipi_ack_wait_cycles = 24
let ipi_handler_instr = 36

let dcbz_cycles = 2
let prefetch_cycles = 2
let zombie_check_instr = 40

let us_of_cycles ~mhz c = float_of_int c /. float_of_int mhz

let mb_per_s ~bytes ~mhz ~cycles =
  if cycles = 0 then 0.0
  else
    let seconds = float_of_int cycles /. (float_of_int mhz *. 1e6) in
    float_of_int bytes /. 1e6 /. seconds
