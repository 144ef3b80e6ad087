type t = {
  mutable cycles : int;
  mutable idle_cycles : int;
  mutable instructions : int;
  mutable mem_refs : int;
  mutable itlb_lookups : int;
  mutable itlb_misses : int;
  mutable dtlb_lookups : int;
  mutable dtlb_misses : int;
  mutable htab_searches : int;
  mutable htab_hits : int;
  mutable htab_misses : int;
  mutable htab_reloads : int;
  mutable htab_evicts : int;
  mutable htab_evicts_live : int;
  mutable htab_evicts_zombie : int;
  mutable icache_accesses : int;
  mutable icache_misses : int;
  mutable dcache_accesses : int;
  mutable dcache_misses : int;
  mutable dcache_bypasses : int;
  mutable dcache_writebacks : int;
  mutable page_faults : int;
  mutable flush_pte_searches : int;
  mutable flush_context_resets : int;
  mutable context_switches : int;
  mutable syscalls : int;
  mutable zombies_reclaimed : int;
  mutable pages_cleared_idle : int;
  mutable prezeroed_hits : int;
  mutable get_free_page_calls : int;
  mutable ipis_sent : int;
  mutable tlb_shootdowns : int;
  mutable shootdowns_deferred : int;
  mutable remote_tlb_invalidates : int;
  mutable shootdown_batch_pages : int;
  mutable work_steals : int;
  mutable vsid_wraps : int;
}

let create () =
  { cycles = 0; idle_cycles = 0; instructions = 0; mem_refs = 0;
    itlb_lookups = 0; itlb_misses = 0; dtlb_lookups = 0; dtlb_misses = 0;
    htab_searches = 0; htab_hits = 0; htab_misses = 0; htab_reloads = 0;
    htab_evicts = 0; htab_evicts_live = 0; htab_evicts_zombie = 0;
    icache_accesses = 0; icache_misses = 0; dcache_accesses = 0;
    dcache_misses = 0; dcache_bypasses = 0; dcache_writebacks = 0;
    page_faults = 0; flush_pte_searches = 0; flush_context_resets = 0;
    context_switches = 0; syscalls = 0; zombies_reclaimed = 0;
    pages_cleared_idle = 0; prezeroed_hits = 0; get_free_page_calls = 0;
    ipis_sent = 0; tlb_shootdowns = 0; shootdowns_deferred = 0;
    remote_tlb_invalidates = 0; shootdown_batch_pages = 0; work_steals = 0;
    vsid_wraps = 0 }

(* Every counter as (name, read, write), in declaration order: the one
   list [reset], [diff], [fields] and [pp] walk.  The exhaustiveness
   tests check it against the record's arity, so a counter added to the
   type but not here fails loudly instead of silently dropping out of
   timelines. *)
let counters : (string * (t -> int) * (t -> int -> unit)) list =
  [ ("cycles", (fun t -> t.cycles), fun t v -> t.cycles <- v);
    ("idle_cycles", (fun t -> t.idle_cycles), fun t v -> t.idle_cycles <- v);
    ("instructions", (fun t -> t.instructions), fun t v -> t.instructions <- v);
    ("mem_refs", (fun t -> t.mem_refs), fun t v -> t.mem_refs <- v);
    ("itlb_lookups", (fun t -> t.itlb_lookups), fun t v -> t.itlb_lookups <- v);
    ("itlb_misses", (fun t -> t.itlb_misses), fun t v -> t.itlb_misses <- v);
    ("dtlb_lookups", (fun t -> t.dtlb_lookups), fun t v -> t.dtlb_lookups <- v);
    ("dtlb_misses", (fun t -> t.dtlb_misses), fun t v -> t.dtlb_misses <- v);
    ("htab_searches", (fun t -> t.htab_searches),
     fun t v -> t.htab_searches <- v);
    ("htab_hits", (fun t -> t.htab_hits), fun t v -> t.htab_hits <- v);
    ("htab_misses", (fun t -> t.htab_misses), fun t v -> t.htab_misses <- v);
    ("htab_reloads", (fun t -> t.htab_reloads), fun t v -> t.htab_reloads <- v);
    ("htab_evicts", (fun t -> t.htab_evicts), fun t v -> t.htab_evicts <- v);
    ("htab_evicts_live", (fun t -> t.htab_evicts_live),
     fun t v -> t.htab_evicts_live <- v);
    ("htab_evicts_zombie", (fun t -> t.htab_evicts_zombie),
     fun t v -> t.htab_evicts_zombie <- v);
    ("icache_accesses", (fun t -> t.icache_accesses),
     fun t v -> t.icache_accesses <- v);
    ("icache_misses", (fun t -> t.icache_misses),
     fun t v -> t.icache_misses <- v);
    ("dcache_accesses", (fun t -> t.dcache_accesses),
     fun t v -> t.dcache_accesses <- v);
    ("dcache_misses", (fun t -> t.dcache_misses),
     fun t v -> t.dcache_misses <- v);
    ("dcache_bypasses", (fun t -> t.dcache_bypasses),
     fun t v -> t.dcache_bypasses <- v);
    ("dcache_writebacks", (fun t -> t.dcache_writebacks),
     fun t v -> t.dcache_writebacks <- v);
    ("page_faults", (fun t -> t.page_faults), fun t v -> t.page_faults <- v);
    ("flush_pte_searches", (fun t -> t.flush_pte_searches),
     fun t v -> t.flush_pte_searches <- v);
    ("flush_context_resets", (fun t -> t.flush_context_resets),
     fun t v -> t.flush_context_resets <- v);
    ("context_switches", (fun t -> t.context_switches),
     fun t v -> t.context_switches <- v);
    ("syscalls", (fun t -> t.syscalls), fun t v -> t.syscalls <- v);
    ("zombies_reclaimed", (fun t -> t.zombies_reclaimed),
     fun t v -> t.zombies_reclaimed <- v);
    ("pages_cleared_idle", (fun t -> t.pages_cleared_idle),
     fun t v -> t.pages_cleared_idle <- v);
    ("prezeroed_hits", (fun t -> t.prezeroed_hits),
     fun t v -> t.prezeroed_hits <- v);
    ("get_free_page_calls", (fun t -> t.get_free_page_calls),
     fun t v -> t.get_free_page_calls <- v);
    ("ipis_sent", (fun t -> t.ipis_sent), fun t v -> t.ipis_sent <- v);
    ("tlb_shootdowns", (fun t -> t.tlb_shootdowns),
     fun t v -> t.tlb_shootdowns <- v);
    ("shootdowns_deferred", (fun t -> t.shootdowns_deferred),
     fun t v -> t.shootdowns_deferred <- v);
    ("remote_tlb_invalidates", (fun t -> t.remote_tlb_invalidates),
     fun t v -> t.remote_tlb_invalidates <- v);
    ("shootdown_batch_pages", (fun t -> t.shootdown_batch_pages),
     fun t v -> t.shootdown_batch_pages <- v);
    ("work_steals", (fun t -> t.work_steals), fun t v -> t.work_steals <- v);
    ("vsid_wraps", (fun t -> t.vsid_wraps), fun t v -> t.vsid_wraps <- v) ]

let snapshot t = { t with cycles = t.cycles }

let reset t = List.iter (fun (_, _, set) -> set t 0) counters

let diff ~after ~before =
  let d = create () in
  List.iter (fun (_, get, set) -> set d (get after - get before)) counters;
  d

let fields t = List.map (fun (name, get, _) -> (name, get t)) counters

let tlb_misses t = t.itlb_misses + t.dtlb_misses
let tlb_lookups t = t.itlb_lookups + t.dtlb_lookups
let cache_misses t = t.icache_misses + t.dcache_misses
let busy_cycles t = t.cycles - t.idle_cycles

let pp fmt t =
  Format.fprintf fmt "@[<v>perf counters:@,";
  List.iter
    (fun (name, get, _) ->
      let v = get t in
      if v <> 0 then Format.fprintf fmt "  %-22s %d@," name v)
    counters;
  Format.fprintf fmt "@]"
