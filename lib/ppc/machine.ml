type reload_style =
  | Hardware_search
  | Software_trap

type tlb_geometry = {
  tlb_sets : int;
  tlb_ways : int;
}

type cache_geometry = {
  cache_bytes : int;
  cache_ways : int;
}

type t = {
  name : string;
  mhz : int;
  reload : reload_style;
  itlb : tlb_geometry;
  dtlb : tlb_geometry;
  icache : cache_geometry;
  dcache : cache_geometry;
  mem_latency : int;
  ram_bytes : int;
  htab_ptes : int;
}

let tlb_entries t =
  (t.itlb.tlb_sets * t.itlb.tlb_ways) + (t.dtlb.tlb_sets * t.dtlb.tlb_ways)

let n_ptegs t = t.htab_ptes / 8

let mb n = n * 1024 * 1024
let kb n = n * 1024

(* 603: 64-entry 2-way I and D TLBs (128 total), 16K 4-way caches. *)
let tlb_603 = { tlb_sets = 32; tlb_ways = 2 }
let cache_603 = { cache_bytes = kb 16; cache_ways = 4 }

(* 604: 128-entry 2-way I and D TLBs (256 total), 32K 4-way caches. *)
let tlb_604 = { tlb_sets = 64; tlb_ways = 2 }
let cache_604 = { cache_bytes = kb 32; cache_ways = 4 }

let base_603 =
  { name = "603";
    mhz = 133;
    reload = Software_trap;
    itlb = tlb_603;
    dtlb = tlb_603;
    icache = cache_603;
    dcache = cache_603;
    mem_latency = 30;
    ram_bytes = mb 32;
    htab_ptes = 16384 }

let base_604 =
  { base_603 with
    name = "604";
    reload = Hardware_search;
    itlb = tlb_604;
    dtlb = tlb_604;
    icache = cache_604;
    dcache = cache_604 }

let ppc603_133 = { base_603 with name = "603 133MHz"; mhz = 133 }

(* Faster core on the same slow memory system: higher relative latency. *)
let ppc603_180 = { base_603 with name = "603 180MHz"; mhz = 180; mem_latency = 40 }

let ppc604_133 = { base_604 with name = "604 133MHz"; mhz = 133; mem_latency = 30 }
let ppc604_185 = { base_604 with name = "604 185MHz"; mhz = 185; mem_latency = 32 }

(* "significantly faster main memory and a better board design" *)
let ppc604_200 = { base_604 with name = "604 200MHz"; mhz = 200; mem_latency = 26 }

(* 601: hardware-reload like the 604; its unified 32K 8-way cache is
   approximated as a 16K+16K split.  750: hardware-reload, 32K+32K 8-way,
   fast core on slow memory. *)
let ppc601_80 =
  { base_604 with
    name = "601 80MHz";
    mhz = 80;
    itlb = tlb_604;
    dtlb = tlb_604;
    icache = { cache_bytes = kb 16; cache_ways = 8 };
    dcache = { cache_bytes = kb 16; cache_ways = 8 };
    mem_latency = 18 }

let ppc750_233 =
  { base_604 with
    name = "750 233MHz";
    mhz = 233;
    itlb = { tlb_sets = 64; tlb_ways = 2 };
    dtlb = { tlb_sets = 64; tlb_ways = 2 };
    icache = { cache_bytes = kb 32; cache_ways = 8 };
    dcache = { cache_bytes = kb 32; cache_ways = 8 };
    mem_latency = 50 }

let all =
  [ ppc601_80; ppc603_133; ppc603_180; ppc604_133; ppc604_185; ppc604_200;
    ppc750_233 ]

(* "603 133MHz" -> "603-133": lowercase, spaces to dashes, the
   redundant frequency unit dropped. *)
let slug t =
  let s = String.lowercase_ascii t.name in
  let s =
    if String.length s > 3 && String.sub s (String.length s - 3) 3 = "mhz"
    then String.sub s 0 (String.length s - 3)
    else s
  in
  String.map (fun c -> if c = ' ' then '-' else c) (String.trim s)

let pp fmt t =
  let style =
    match t.reload with
    | Hardware_search -> "hw-reload"
    | Software_trap -> "sw-reload"
  in
  Format.fprintf fmt "%s (%d MHz, %s, %d TLB entries, %dK+%dK L1)" t.name
    t.mhz style (tlb_entries t)
    (t.icache.cache_bytes / 1024)
    (t.dcache.cache_bytes / 1024)
