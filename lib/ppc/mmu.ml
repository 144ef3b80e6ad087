type knobs = {
  use_htab : bool;
  fast_reload : bool;
  cache_inhibit_pagetables : bool;
  htab_replacement : [ `Arbitrary | `Second_chance | `Zombie_aware ];
  tlb_replacement : Tlb.replacement;
}

let default_knobs =
  { use_htab = true;
    fast_reload = true;
    cache_inhibit_pagetables = false;
    htab_replacement = `Arbitrary;
    tlb_replacement = Tlb.Lru }

type backing = { walk : on_ref:(Addr.pa -> unit) -> Addr.ea -> int }

type access_kind =
  | Fetch
  | Load
  | Store

type access_result =
  | Ok of Addr.pa
  | Fault

type t = {
  machine : Machine.t;
  memsys : Memsys.t;
  knobs : knobs;
  engine : Reload_engine.t;
  (* Per-CPU translation state: each CPU owns a segment-register file,
     BAT banks and split TLBs; the htab, caches and clock are shared.
     The hot path reads the current CPU's structures through the mutable
     aliases below — [set_cpu] swaps them, so at [cpus = 1] the access
     path is byte-for-byte the single-CPU one. *)
  n_cpus : int;
  mutable cur_cpu : int;
  segs : Segment.t array;
  ibats : Bat.t array;
  dbats : Bat.t array;
  itlbs : Tlb.t array;
  dtlbs : Tlb.t array;
  mutable seg : Segment.t;
  mutable ibat : Bat.t;
  mutable dbat : Bat.t;
  mutable itlb : Tlb.t;
  mutable dtlb : Tlb.t;
  (* Per-CPU miss accounting (the shared Perf totals stay authoritative;
     these split them by CPU for the SMP report). *)
  cpu_itlb_misses : int array;
  cpu_dtlb_misses : int array;
  htab : Htab.t option;
  mutable backing : backing;
  mutable is_zombie : int -> bool;
  mutable is_kernel_vsid : int -> bool;
  mutable shadow : Shadow.t option;
  rng : Rng.t;
  (* The callbacks the reload path hands to the page-table walker and
     the htab, built once at [create] — partially applying the helpers
     on every reload would allocate a closure per miss. *)
  mutable on_pt_ref : Addr.pa -> unit;
  mutable on_htab_run : Addr.pa -> int -> unit;
  (* [Htab.insert]'s [?policy], built once for the same reason: naming
     it at the call would allocate a [Some] per fill. *)
  mutable htab_policy : Htab.replacement option;
  (* The running task's PID (0 = kernel/idle), set by the kernel on a
     context switch: the owner of trace events, profiler accounts and
     shadow reports.  Last, so the hit path's field offsets stay put. *)
  mutable pid : int;
}

(* Physical address region where the C handlers save/restore state. *)
let handler_stack_pa = 0x0000_8000

(* Test-only fault injection: a nonzero value makes [flush_page_for_vsid]
   skip its TLB invalidations — the stale-translation bug class the
   shadow checker exists to catch.  Positive = skip that many flush
   calls then disarm; negative = skip every one.  Costs are still
   charged, so an armed-but-never-triggering run stays byte-identical. *)
let test_skip_tlb_invalidations = ref 0

(* Test-only fault injection for the SMP paths: a nonzero value makes
   a shootdown round charge in full but skip the remote TLB
   invalidations — the stale-remote-TLB bug class.  Positive = skip that
   many shootdown rounds then disarm; negative = skip every one. *)
let test_skip_shootdowns = ref 0

let machine t = t.machine
let memsys t = t.memsys
let knobs t = t.knobs
let engine t = t.engine
let segments t = t.seg
let ibat t = t.ibat
let dbat t = t.dbat
let itlb t = t.itlb
let dtlb t = t.dtlb
let htab t = t.htab

let n_cpus t = t.n_cpus
let cur_cpu t = t.cur_cpu

let set_cpu t cpu =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Mmu.set_cpu";
  if cpu <> t.cur_cpu then begin
    t.cur_cpu <- cpu;
    t.seg <- t.segs.(cpu);
    t.ibat <- t.ibats.(cpu);
    t.dbat <- t.dbats.(cpu);
    t.itlb <- t.itlbs.(cpu);
    t.dtlb <- t.dtlbs.(cpu)
  end

let segments_of t ~cpu = t.segs.(cpu)
let ibat_of t ~cpu = t.ibats.(cpu)
let dbat_of t ~cpu = t.dbats.(cpu)
let cpu_itlb_misses t ~cpu = t.cpu_itlb_misses.(cpu)
let cpu_dtlb_misses t ~cpu = t.cpu_dtlb_misses.(cpu)

let set_backing t backing = t.backing <- backing
let set_vsid_is_zombie t f = t.is_zombie <- f
let set_vsid_is_kernel t f = t.is_kernel_vsid <- f

let attach_shadow t sh = t.shadow <- Some sh
let shadow t = t.shadow

let set_pid t pid = t.pid <- pid
let pid t = t.pid

let[@inline] perf t = Memsys.perf t.memsys
let[@inline] trace t = Memsys.trace t.memsys
let profile t = Memsys.profile t.memsys
let span t = Memsys.span t.memsys

let kernel_tlb_entries t ~is_kernel_vsid =
  let p vpn = is_kernel_vsid (Addr.vsid_of_vpn vpn) in
  Tlb.count_matching t.itlb p + Tlb.count_matching t.dtlb p

let tlb_occupancy t = Tlb.occupancy t.itlb + Tlb.occupancy t.dtlb

(* --- cost-charging reference helpers ------------------------------- *)

let pt_ref t pa =
  (perf t).Perf.mem_refs <- (perf t).Perf.mem_refs + 1;
  Memsys.data_ref t.memsys ~source:Cache.Page_table
    ~inhibited:t.knobs.cache_inhibit_pagetables ~write:false pa

(* A line run of [n] PTE reads (see [Htab]). *)
let[@inline] htab_run t pa n =
  Memsys.table_run t.memsys ~instr:0 ~source:Cache.Htab
    ~inhibited:t.knobs.cache_inhibit_pagetables ~write:false pa n

(* Software examination of a PTE costs a few compare/branch instructions
   on top of the memory reference; hardware search does not. *)
let[@inline] probe_instr (c : Reload_engine.costs) =
  if c.Reload_engine.software_search then 4 else 0

let noop_ref (_ : Addr.pa) = ()
let noop_run (_ : Addr.pa) (_ : int) = ()

(* [Htab.insert]'s [?changed] for a store, a constant so passing it
   allocates nothing. *)
let changed_true = Some true

(* One step of a TLB miss: charged now while [observed], so every
   sample, event and attribution sees each charge land in turn, else
   returned as cycles the miss owes to its one charge. *)
let[@inline] step t ~observed cycles =
  if observed then begin
    if cycles > 0 then Memsys.stall t.memsys cycles;
    0
  end
  else cycles

(* The original C handler: its path length, then the state save's stack
   references, each with its own charges while observed (a dirty
   victim's write-back is a second one).  Out of line, beside the fast
   handler's one step. *)
let[@inline never] slow_handler t ~observed ~instr ~stack_refs =
  let owed =
    ref (step t ~observed (Memsys.instructions_cycles t.memsys instr))
  in
  for i = 0 to stack_refs - 1 do
    let pa = handler_stack_pa + (i * Addr.line_size) in
    if observed then
      Memsys.data_ref t.memsys ~source:Cache.Kernel ~inhibited:false
        ~write:true pa
    else
      owed :=
        !owed
        + Memsys.data_ref_cycles t.memsys ~source:Cache.Kernel
            ~inhibited:false ~write:true pa
  done;
  !owed

(* Handler path length: fast assembly vs original C with state save. *)
let[@inline] handler t ~observed ~fast ~slow ~slow_stack_refs =
  if t.knobs.fast_reload then
    step t ~observed (Memsys.instructions_cycles t.memsys fast)
  else slow_handler t ~observed ~instr:slow ~stack_refs:slow_stack_refs

let create ?(htab_base_pa = 0x0030_0000) ?(cpus = 1) ~machine ~memsys ~knobs
    ~backing ~rng () =
  if cpus < 1 then invalid_arg "Mmu.create: cpus must be at least 1";
  let engine = Reload_engine.select ~machine ~use_htab:knobs.use_htab in
  (* A hardware-reload machine cannot bypass the htab; the knob records
     what the selected backend actually does. *)
  let knobs = { knobs with use_htab = Reload_engine.uses_htab engine } in
  let tlb_of (g : Machine.tlb_geometry) =
    Tlb.create ~replacement:knobs.tlb_replacement ~sets:g.Machine.tlb_sets
      ~ways:g.Machine.tlb_ways ()
  in
  let segs = Array.init cpus (fun _ -> Segment.create ()) in
  let ibats = Array.init cpus (fun _ -> Bat.create ()) in
  let dbats = Array.init cpus (fun _ -> Bat.create ()) in
  let itlbs = Array.init cpus (fun _ -> tlb_of machine.Machine.itlb) in
  let dtlbs = Array.init cpus (fun _ -> tlb_of machine.Machine.dtlb) in
  let t =
    { machine;
      memsys;
      knobs;
      engine;
      n_cpus = cpus;
      cur_cpu = 0;
      segs;
      ibats;
      dbats;
      itlbs;
      dtlbs;
      seg = segs.(0);
      ibat = ibats.(0);
      dbat = dbats.(0);
      itlb = itlbs.(0);
      dtlb = dtlbs.(0);
      cpu_itlb_misses = Array.make cpus 0;
      cpu_dtlb_misses = Array.make cpus 0;
      htab =
        (if Reload_engine.uses_htab engine then
           Some
             (Htab.create ~base_pa:htab_base_pa
                ~n_ptes:machine.Machine.htab_ptes ())
         else None);
      backing;
      is_zombie = (fun _ -> false);
      is_kernel_vsid = (fun _ -> false);
      shadow = None;
      rng;
      on_pt_ref = noop_ref;
      on_htab_run = noop_run;
      htab_policy = None;
      pid = 0 }
  in
  t.on_pt_ref <- pt_ref t;
  (* A two-argument closure, not a partial application: [Htab] calls it
     through [caml_apply2], which then enters the body directly. *)
  t.on_htab_run <- (fun pa n -> htab_run t pa n);
  t.htab_policy <-
    Some
      (match knobs.htab_replacement with
      | `Arbitrary -> Htab.Arbitrary
      | `Second_chance -> Htab.Second_chance
      | `Zombie_aware -> Htab.Prefer_zombie (fun vsid -> t.is_zombie vsid));
  Profile.set_tlb_capacity (Memsys.profile memsys)
    (Tlb.capacity t.itlb + Tlb.capacity t.dtlb);
  (* Recorder gauges over the machine state: only ever read inside a
     sample or the profiler's end-of-run snapshot, so they cost nothing
     unarmed.  The closures read [t]'s mutable predicates at call time,
     so the kernel can install liveness/ownership tests after boot. *)
  let gauge = Memsys.add_gauge memsys in
  (match t.htab with
  | None -> ()
  | Some h ->
      gauge ~name:"htab" (fun () ->
          [| Htab.occupancy h;
             Htab.capacity h;
             Htab.count_valid h ~f:t.is_zombie |]);
      gauge ~name:"htab_chains" (fun () -> Htab.histogram h));
  gauge ~name:"tlb" (fun () ->
      [| tlb_occupancy t;
         Tlb.capacity t.itlb + Tlb.capacity t.dtlb;
         kernel_tlb_entries t ~is_kernel_vsid:t.is_kernel_vsid |]);
  gauge ~name:"cpu_itlb" (fun () -> Array.copy t.cpu_itlb_misses);
  gauge ~name:"cpu_dtlb" (fun () -> Array.copy t.cpu_dtlb_misses);
  t

(* --- translations as one immediate ------------------------------------ *)

(* A reload's answer packed into one immediate, so the miss path builds
   nothing on the heap: -1 for "no translation", else
   [rpn lsl 3 lor from_htab lor writable lor inhibited].  The backing
   walk answers in the same form, with [from_htab] clear. *)
let r_inhibited = 1
let r_writable = 2
let r_from_htab = 4

let[@inline] pack ~rpn ~writable ~inhibited =
  (rpn lsl 3)
  lor (if writable then r_writable else 0)
  lor if inhibited then r_inhibited else 0

(* --- the reference translator ----------------------------------------- *)

(* The architectural answer for one effective address: BAT registers,
   then the backing page tables — no TLB, no htab, no cost charging, no
   state mutation.  This is what the fast path is a cache of; the shadow
   checker compares every access against it and [probe] simply returns
   its physical address. *)
let reference_outcome t kind ea =
  let ea = ea land Addr.ea_mask in
  let bat = match kind with Fetch -> t.ibat | Load | Store -> t.dbat in
  match Bat.translate bat ea with
  | Some pa -> { Shadow.pa = Some pa; inhibited = false; answered = Shadow.Bat }
  | None ->
      let r = t.backing.walk ~on_ref:noop_ref ea in
      if r < 0 then
        { Shadow.pa = None;
          inhibited = false;
          answered = Shadow.No_translation }
      else if kind = Store && r land r_writable = 0 then
        { Shadow.pa = None; inhibited = false; answered = Shadow.Page_table }
      else
        { Shadow.pa = Some (Addr.pa_of ~rpn:(r lsr 3) ~ea);
          inhibited = r land r_inhibited <> 0;
          answered = Shadow.Page_table }

let probe t kind ea = (reference_outcome t kind ea).Shadow.pa

let shadow_kind = function
  | Fetch -> Shadow.Fetch
  | Load -> Shadow.Load
  | Store -> Shadow.Store

(* Cross-validate one finished access against the reference translator.
   [ea] is already masked; [pa] is the fast path's physical address with
   -1 meaning "faulted".  The option is only built once a shadow is
   known to be attached, so the unshadowed hit path allocates nothing:
   [shadow_check] inlines to one test of [t.shadow], and the comparison
   itself stays out of line. *)
let[@inline never] shadow_compare t sh kind ea ~pa ~inhibited ~answered =
  Shadow.check sh ~cpu:t.cur_cpu ~pid:t.pid
    ~vsid:(Segment.vsid_for t.seg ea)
    ~ea ~kind:(shadow_kind kind)
    ~fast:
      { Shadow.pa = (if pa < 0 then None else Some pa);
        inhibited;
        answered }
    ~reference:(reference_outcome t kind ea)

let[@inline] shadow_check t kind ea ~pa ~inhibited ~answered =
  match t.shadow with
  | None -> ()
  | Some sh -> shadow_compare t sh kind ea ~pa ~inhibited ~answered

(* --- reload paths ---------------------------------------------------- *)

(* Software fill after every faster mechanism missed: walk the Linux page
   tables and, when an htab exists, place the PTE there (possibly
   displacing a valid entry without checking VSID liveness). *)
let walk_and_fill t ~vsid ~ea ~page_index ~store =
  let r = t.backing.walk ~on_ref:t.on_pt_ref ea in
  (match t.htab with
  | Some h when r >= 0 ->
      ignore
        (handler t ~observed:true ~fast:Cost.htab_insert_fast_instr
           ~slow:Cost.htab_insert_slow_instr
           ~slow_stack_refs:Cost.htab_insert_slow_stack_refs
          : int);
      let p = perf t in
      p.Perf.htab_reloads <- p.Perf.htab_reloads + 1;
      (* "we updated the page-table PTE dirty/modified bits when we
         loaded the PTE into the hash table" (§7): R is set at reload
         and C eagerly for stores, whether the slot was free or
         displaced a victim, so a later flush is a pure invalidate. *)
      let victim =
        Htab.insert h ?policy:t.htab_policy
          ?changed:(if store then changed_true else None)
          ~rng:t.rng ~vsid ~page_index ~rpn:(r lsr 3)
          ~wimg:
            (if r land r_inhibited <> 0 then Pte.wimg_uncached
             else Pte.wimg_default)
          ~protection:
            (if r land r_writable <> 0 then Pte.Read_write else Pte.Read_only)
          ~on_run:t.on_htab_run
      in
      if victim >= 0 then begin
        (* the rejected design pays a software liveness check per
           candidate right in the reload path *)
        if t.knobs.htab_replacement = `Zombie_aware then
          Memsys.instructions t.memsys Cost.zombie_check_instr;
        p.Perf.htab_evicts <- p.Perf.htab_evicts + 1;
        let victim_vsid = Htab.vsid_of_tag victim in
        let victim_zombie = t.is_zombie victim_vsid in
        if victim_zombie then
          p.Perf.htab_evicts_zombie <- p.Perf.htab_evicts_zombie + 1
        else p.Perf.htab_evicts_live <- p.Perf.htab_evicts_live + 1;
        let tr = trace t in
        if Trace.enabled tr then
          Trace.emit tr Trace.Htab_evict ~pid:t.pid ~a:victim_vsid
            ~b:(if victim_zombie then 0 else 1)
      end
  | Some _ | None -> ());
  r

(* A hit sets the entry's R bit, as the hardware does, and answers
   from its word 1. *)
let[@inline] htab_answer h i =
  let w1 = Htab.reference h i in
  pack ~rpn:(Htab.rpn w1) ~writable:(Htab.writable w1)
    ~inhibited:(Htab.inhibited w1)
  lor r_from_htab

let[@inline] reload_handler t ~observed =
  handler t ~observed ~fast:Cost.sw_reload_fast_instr
    ~slow:Cost.sw_reload_slow_instr
    ~slow_stack_refs:Cost.sw_reload_slow_stack_refs

(* The miss trap and the software fill, once every faster mechanism has
   missed.  Each step charges as it goes, observed or not: the fill
   charges its page-table loads itself.  Out of line: the page-table
   walk calls the kernel's closure. *)
let[@inline never] trap_and_fill t (c : Reload_engine.costs) ~vsid ~ea
    ~page_index ~store =
  ignore (step t ~observed:true c.Reload_engine.miss_trap_cycles : int);
  if c.Reload_engine.handler_on_miss then
    ignore (reload_handler t ~observed:true : int);
  walk_and_fill t ~vsid ~ea ~page_index ~store

(* --- the access path -------------------------------------------------- *)

let[@inline] final_ref t kind pa ~inhibited ~source =
  match kind with
  | Fetch -> Memsys.inst_ref t.memsys pa
  | Load -> Memsys.data_ref t.memsys ~source ~inhibited ~write:false pa
  | Store -> Memsys.data_ref t.memsys ~source ~inhibited ~write:true pa

let[@inline] count_lookup t kind =
  let p = perf t in
  match kind with
  | Fetch -> p.Perf.itlb_lookups <- p.Perf.itlb_lookups + 1
  | Load | Store -> p.Perf.dtlb_lookups <- p.Perf.dtlb_lookups + 1

let[@inline] count_miss t kind =
  let p = perf t in
  match kind with
  | Fetch ->
      p.Perf.itlb_misses <- p.Perf.itlb_misses + 1;
      t.cpu_itlb_misses.(t.cur_cpu) <- t.cpu_itlb_misses.(t.cur_cpu) + 1
  | Load | Store ->
      p.Perf.dtlb_misses <- p.Perf.dtlb_misses + 1;
      t.cpu_dtlb_misses.(t.cur_cpu) <- t.cpu_dtlb_misses.(t.cur_cpu) + 1

let[@inline] source_of_ea ea =
  if Segment.is_kernel_ea ea then Cache.Kernel else Cache.User

(* One line run of a search's PTE reads as a step. *)
let[@inline] run_step t ~observed ~instr pa n =
  let inhibited = t.knobs.cache_inhibit_pagetables in
  if observed then begin
    Memsys.table_run t.memsys ~instr ~source:Cache.Htab ~inhibited
      ~write:false pa n;
    0
  end
  else
    Memsys.table_run_cycles t.memsys ~instr ~source:Cache.Htab ~inhibited
      ~write:false pa n

(* The final reference as a step. *)
let[@inline] final_step t ~observed kind pa ~inhibited ~source =
  if observed then begin
    final_ref t kind pa ~inhibited ~source;
    0
  end
  else
    match kind with
    | Fetch -> Memsys.inst_ref_cycles t.memsys pa
    | Load ->
        Memsys.data_ref_cycles t.memsys ~source ~inhibited ~write:false pa
    | Store ->
        Memsys.data_ref_cycles t.memsys ~source ~inhibited ~write:true pa

(* A miss's last step: the shadow comparison while observed, else the
   one charge of everything it owed. *)
let[@inline] settle t ~observed ~owed kind ea ~pa ~inhibited ~answered =
  if observed then shadow_check t kind ea ~pa ~inhibited ~answered
  else Memsys.stall t.memsys owed

(* Which structure produced a packed translation, as the shadow names
   it. *)
let[@inline] answered_by r =
  if r land r_from_htab <> 0 then Shadow.Htab else Shadow.Page_table

(* The observed miss's hooks, out of line beside it.  Observation only:
   no cycles, no cache traffic, no RNG.

   Attribution: the full reload service cost is charged to the owning
   (pid, segment) under the TLB kind, and a reload that also missed the
   htab is charged again under the htab kind.  The same cost lands on
   the request the CPU is serving, with the htab-missing subset
   tagged. *)
let[@inline never] attribute_reload t kind ea ~cost ~htab_missed =
  let pr = profile t in
  if Profile.enabled pr then begin
    let pid = t.pid in
    let seg = Addr.sr_index ea in
    let page = Addr.page_base ea in
    let mk =
      match kind with
      | Fetch -> Profile.Itlb
      | Load | Store -> Profile.Dtlb
    in
    Profile.charge_miss pr ~pid ~seg ~page ~kind:mk ~cost;
    if htab_missed then
      Profile.charge_miss pr ~pid ~seg ~page ~kind:Profile.Htab_miss ~cost
  end;
  Span.charge_reload (span t) ~cost ~htab_missed

(* The TLB fill's events, and the kernel-vs-user slot census, taken
   while the TLB contents are freshest. *)
let[@inline never] note_tlb_fill t ea ~victim_vpn ~cost =
  let tr = trace t in
  if Trace.enabled tr then begin
    if victim_vpn >= 0 then
      Trace.emit tr Trace.Tlb_evict ~pid:t.pid ~a:victim_vpn
        ~b:(Addr.vsid_of_vpn victim_vpn);
    Trace.emit_tlb_service tr ~pid:t.pid ~ea ~cost
  end;
  let pr = profile t in
  if Profile.enabled pr then
    Profile.note_tlb_census pr
      ~kernel:(kernel_tlb_entries t ~is_kernel_vsid:t.is_kernel_vsid)
      ~occupied:(tlb_occupancy t)

(* The TLB miss, written once: the trap entry and its handler, the hash
   setup and the PTE line runs [Htab] defines for the probe, the fill
   on an htab miss, the TLB insert and the final reference, each step
   driven by the backend's cost row ([Reload_engine.cost_table]), for
   both handler generations.  [access_miss] compiles it twice.

   Observed, each step charges as it goes, and the trace, profile, span
   and shadow hooks run between the charges; an armed recorder samples
   the charge-by-charge order, reference by reference.
   Unobserved, nothing can read the machine between two charges, so
   each step adds its cycles to [owed] and the miss charges them once
   (§6.1's straight-line handler, applied to the simulator): the caches
   see the same references in the same order, and every counter ends
   where the observed sequence leaves it.  The fill after an htab miss
   charges as it goes either way.

   Each hook tests [observed] itself, never a flag bound from it: once
   [observed] is a constant, ocamlopt folds the former away but keeps a
   test of the latter, and with it the hook's call. *)
let[@inline] miss t kind ea ~observed ~vsid ~vpn ~tlb ~source ~store =
  let c = Reload_engine.costs t.engine in
  let p = perf t in
  let miss_start = if observed then p.Perf.cycles else 0 in
  let htab_misses_before = if observed then p.Perf.htab_misses else 0 in
  if observed then
    Trace.emit (trace t)
      (match kind with
      | Fetch -> Trace.Itlb_miss
      | Load | Store -> Trace.Dtlb_miss)
      ~pid:t.pid ~a:ea ~b:0;
  let page_index = Addr.page_index ea in
  let owed = ref (step t ~observed c.Reload_engine.entry_stall_cycles) in
  if c.Reload_engine.handler_on_entry then
    owed := !owed + reload_handler t ~observed;
  let r =
    match t.htab with
    | None -> trap_and_fill t c ~vsid ~ea ~page_index ~store
    | Some h ->
        owed :=
          !owed
          + step t ~observed
              (Memsys.instructions_cycles t.memsys
                 c.Reload_engine.hash_setup_instr);
        p.Perf.htab_searches <- p.Perf.htab_searches + 1;
        let i = Htab.find_slot h ~vsid ~page_index in
        let len = Htab.probe_len h ~vsid ~page_index i in
        for k = 0 to Htab.runs ~len - 1 do
          owed :=
            !owed
            + run_step t ~observed ~instr:(probe_instr c)
                (Htab.run_pa h ~vsid ~page_index k)
                (Htab.run_slots ~len k)
        done;
        if i >= 0 then p.Perf.htab_hits <- p.Perf.htab_hits + 1
        else p.Perf.htab_misses <- p.Perf.htab_misses + 1;
        if observed then
          Trace.emit_htab_probe (trace t) ~pid:t.pid ~len ~hit:(i >= 0);
        if i >= 0 then htab_answer h i
        else trap_and_fill t c ~vsid ~ea ~page_index ~store
  in
  if observed then
    attribute_reload t kind ea
      ~cost:(p.Perf.cycles - miss_start)
      ~htab_missed:(p.Perf.htab_misses > htab_misses_before);
  if r < 0 then begin
    settle t ~observed ~owed:!owed kind ea ~pa:(-1) ~inhibited:false
      ~answered:Shadow.No_translation;
    -1
  end
  else begin
    let rpn = r lsr 3 in
    let inhibited = r land r_inhibited <> 0 in
    let writable = r land r_writable <> 0 in
    let victim_vpn = Tlb.insert_flat tlb ~vpn ~rpn ~inhibited ~writable in
    if observed then
      note_tlb_fill t ea ~victim_vpn ~cost:(p.Perf.cycles - miss_start);
    if store && not writable then begin
      settle t ~observed ~owed:!owed kind ea ~pa:(-1) ~inhibited:false
        ~answered:(answered_by r);
      -1
    end
    else begin
      let pa = Addr.pa_of ~rpn ~ea in
      let owed = !owed + final_step t ~observed kind pa ~inhibited ~source in
      settle t ~observed ~owed kind ea ~pa ~inhibited ~answered:(answered_by r);
      pa
    end
  end

let[@inline never] observed_miss t kind ea ~vsid ~vpn ~tlb ~source ~store =
  miss t kind ea ~observed:true ~vsid ~vpn ~tlb ~source ~store

(* Everything below the [Tlb.lookup_slot] fast exit, kept out of
   [access_pa] so the hit path stays small.  One test picks the
   instance: [observed_miss] while anything observes the machine
   (trace, profile, spans, either recorder, or a shadow), else the
   plain one, inlined here with its hooks folded away. *)
let[@inline never] access_miss t kind ea ~vsid ~vpn ~tlb ~source ~store =
  count_miss t kind;
  match t.shadow with
  | None when not (Memsys.observed t.memsys) ->
      miss t kind ea ~observed:false ~vsid ~vpn ~tlb ~source ~store
  | Some _ | None -> observed_miss t kind ea ~vsid ~vpn ~tlb ~source ~store

(* One access, returning the physical address or -1 on a fault.  This is
   the hot path: on a TLB hit (no shadow attached) it allocates nothing —
   flat TLB slot reads, an int physical address out. *)
let access_pa t kind ea =
  let ea = ea land Addr.ea_mask in
  let source = source_of_ea ea in
  let bat = match kind with Fetch -> t.ibat | Load | Store -> t.dbat in
  let bat_pa = Bat.translate_pa bat ea in
  if bat_pa >= 0 then begin
    let tr = trace t in
    if Trace.enabled tr then
      Trace.emit tr Trace.Bat_hit ~pid:t.pid ~a:ea ~b:0;
    final_ref t kind bat_pa ~inhibited:false ~source;
    shadow_check t kind ea ~pa:bat_pa ~inhibited:false ~answered:Shadow.Bat;
    bat_pa
  end
  else begin
    let vsid = Segment.vsid_for t.seg ea in
    let vpn = Addr.vpn_of ~vsid ~ea in
    let tlb = match kind with Fetch -> t.itlb | Load | Store -> t.dtlb in
    let store = match kind with Store -> true | Fetch | Load -> false in
    count_lookup t kind;
    let slot = Tlb.lookup_slot tlb vpn in
    if slot >= 0 then
      if store && not (Tlb.slot_writable tlb slot) then begin
        shadow_check t kind ea ~pa:(-1) ~inhibited:false ~answered:Shadow.Tlb;
        -1
      end
      else begin
        let inhibited = Tlb.slot_inhibited tlb slot in
        let pa = Addr.pa_of ~rpn:(Tlb.slot_rpn tlb slot) ~ea in
        final_ref t kind pa ~inhibited ~source;
        shadow_check t kind ea ~pa ~inhibited ~answered:Shadow.Tlb;
        pa
      end
    else access_miss t kind ea ~vsid ~vpn ~tlb ~source ~store
  end

let access t kind ea =
  let pa = access_pa t kind ea in
  if pa < 0 then Fault else Ok pa

(* --- flush and idle-task operations ---------------------------------- *)

let tlbie_cycles = 4

let note_flush t ~what ~vsid ~ea =
  match t.shadow with
  | None -> ()
  | Some sh -> Shadow.note_flush sh ~what ~vsid ~ea

let flush_page_for_vsid t ~vsid ea =
  let vpn = Addr.vpn_of ~vsid ~ea in
  let tr = trace t in
  if Trace.enabled tr then
    Trace.emit tr Trace.Flush_page ~pid:t.pid ~a:ea ~b:vsid;
  Memsys.stall t.memsys tlbie_cycles;
  Memsys.instructions t.memsys 6;
  (* test-only stale-TLB injection: see [test_skip_tlb_invalidations] *)
  let skip = !test_skip_tlb_invalidations <> 0 in
  if !test_skip_tlb_invalidations > 0 then decr test_skip_tlb_invalidations;
  if not skip then begin
    Tlb.invalidate_page t.itlb vpn;
    Tlb.invalidate_page t.dtlb vpn
  end;
  note_flush t ~what:"flush-page" ~vsid ~ea;
  match t.htab with
  | None -> ()
  | Some h ->
      let p = perf t in
      p.Perf.flush_pte_searches <- p.Perf.flush_pte_searches + 1;
      ignore
        (Htab.invalidate_page h ~vsid ~page_index:(Addr.page_index ea)
           ~on_run:t.on_htab_run
          : bool)

let flush_page t ea =
  flush_page_for_vsid t ~vsid:(Segment.vsid_for t.seg ea) ea

let invalidate_tlbs t =
  Tlb.invalidate_all t.itlb;
  Tlb.invalidate_all t.dtlb;
  note_flush t ~what:"tlb-invalidate-all" ~vsid:0 ~ea:0

(* --- cross-CPU shootdowns --------------------------------------------- *)

(* One shootdown round: the initiator posts an IPI to every CPU in
   [targets] (a bitmask of remote CPUs); each remote pays the IPI send,
   the handler and, per page in [pages] (a list of (vsid, ea) pairs, so
   ranges crossing a segment boundary still work), a [tlbie] and the
   invalidation of its own TLBs; the initiator then spins for the
   acknowledgement.  All charges land on the shared serialized clock.
   Counter shape: one [tlb_shootdowns] round, [ipis_sent] once per
   remote CPU and a [remote_tlb_invalidates] per (cpu, page). *)
let shootdown_round t ~what ~targets pages =
  let p = perf t in
  p.Perf.tlb_shootdowns <- p.Perf.tlb_shootdowns + 1;
  (* test-only stale-remote-TLB injection: costs still charged *)
  let skip = !test_skip_shootdowns <> 0 in
  if !test_skip_shootdowns > 0 then decr test_skip_shootdowns;
  for cpu = 0 to t.n_cpus - 1 do
    if targets land (1 lsl cpu) <> 0 then begin
      p.Perf.ipis_sent <- p.Perf.ipis_sent + 1;
      Memsys.stall t.memsys Cost.ipi_send_cycles;
      Memsys.instructions t.memsys Cost.ipi_handler_instr;
      List.iter
        (fun (vsid, ea) ->
          let vpn = Addr.vpn_of ~vsid ~ea in
          Memsys.stall t.memsys tlbie_cycles;
          if not skip then begin
            Tlb.invalidate_page t.itlbs.(cpu) vpn;
            Tlb.invalidate_page t.dtlbs.(cpu) vpn
          end;
          p.Perf.remote_tlb_invalidates <- p.Perf.remote_tlb_invalidates + 1)
        pages;
      Memsys.stall t.memsys Cost.ipi_ack_wait_cycles
    end
  done;
  List.iter (fun (vsid, ea) -> note_flush t ~what ~vsid ~ea) pages

(* A round for a single page.  A zero [targets] is a complete no-op —
   the [cpus = 1] hot path never reaches any of this. *)
let shootdown_page t ~vsid ~targets ea =
  if targets <> 0 then
    shootdown_round t ~what:"shootdown-page" ~targets [ (vsid, ea) ]

(* Batched shootdown for a whole precise-flush range: one round covers
   every page, so each remote CPU pays the IPI send / handler / ack-wait
   costs once and a [tlbie] per page, instead of a full round per page
   as [shootdown_page] charges.  [shootdown_batch_pages] counts the
   pages the round covered. *)
let shootdown_range t ~targets pages =
  if targets <> 0 && pages <> [] then begin
    let p = perf t in
    p.Perf.shootdown_batch_pages <-
      p.Perf.shootdown_batch_pages + List.length pages;
    shootdown_round t ~what:"shootdown-range" ~targets pages
  end

(* Invalidate every TLB on every CPU — the §7 escape hatch the VSID
   wrap fires (and boot-time cleanup).  Cost-free bookkeeping like
   [invalidate_tlbs]; the caller charges whatever its path costs. *)
let invalidate_all_cpus t =
  for cpu = 0 to t.n_cpus - 1 do
    Tlb.invalidate_all t.itlbs.(cpu);
    Tlb.invalidate_all t.dtlbs.(cpu)
  done;
  note_flush t ~what:"tlb-invalidate-all-cpus" ~vsid:0 ~ea:0

let reclaim_zombies t ~max_ptes =
  match t.htab with
  | None -> 0
  | Some h ->
      (* While a recorder samples, the scan charges and clears slot by
         slot, so a sample's htab gauge sees each clear when it always
         did. *)
      let reclaimed =
        Htab.reclaim_zombies h ~is_zombie:t.is_zombie ~max_ptes
          ~per_slot:(Memsys.sampling t.memsys) ~on_run:t.on_htab_run
      in
      let p = perf t in
      p.Perf.zombies_reclaimed <- p.Perf.zombies_reclaimed + reclaimed;
      let tr = trace t in
      if Trace.enabled tr then
        Trace.emit tr Trace.Idle_reclaim ~pid:0 ~a:reclaimed ~b:max_ptes;
      reclaimed
