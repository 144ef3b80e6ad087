type idle_clearing =
  | Clear_off
  | Clear_cached
  | Clear_uncached

type t = {
  bat_kernel_mapping : bool;
  vsid_source : Vsid_alloc.id_source;
  vsid_multiplier : int;
  fast_reload : bool;
  fast_paths : bool;
  use_htab : bool;
  flush_cutoff : int option;
  idle_zombie_reclaim : bool;
  idle_clearing : idle_clearing;
  idle_clear_list : bool;
  cache_inhibit_pagetables : bool;
  bat_framebuffer : bool;
  idle_cache_lock : bool;
  cache_preload : bool;
  htab_replacement : [ `Arbitrary | `Second_chance | `Zombie_aware ];
  tlb_replacement : Ppc.Tlb.replacement;
}

let flush_cutoff_pages = 20

(* The zombie-reclaim cadence and pre-zero list depth the paper's idle
   task settled on: constants, not knobs. *)
let reclaim_interval_slices = 16
let reclaim_chunk_ptes = 64
let prezero_list_pages = 64

let baseline =
  { bat_kernel_mapping = false;
    vsid_source = Vsid_alloc.Pid_based;
    vsid_multiplier = 1;
    fast_reload = false;
    fast_paths = false;
    use_htab = true;
    flush_cutoff = None;
    idle_zombie_reclaim = false;
    idle_clearing = Clear_off;
    idle_clear_list = false;
    cache_inhibit_pagetables = false;
    bat_framebuffer = false;
    idle_cache_lock = false;
    cache_preload = false;
    htab_replacement = `Arbitrary;
    tlb_replacement = Ppc.Tlb.Lru }

let optimized =
  { bat_kernel_mapping = true;
    vsid_source = Vsid_alloc.Context_counter;
    vsid_multiplier = Vsid_alloc.scatter_multiplier;
    fast_reload = true;
    fast_paths = true;
    use_htab = true;
    flush_cutoff = Some flush_cutoff_pages;
    idle_zombie_reclaim = true;
    idle_clearing = Clear_uncached;
    idle_clear_list = true;
    cache_inhibit_pagetables = false;
    bat_framebuffer = false;
    idle_cache_lock = false;
    cache_preload = false;
    htab_replacement = `Arbitrary;
    tlb_replacement = Ppc.Tlb.Lru }

let mmu_knobs t =
  { Ppc.Mmu.use_htab = t.use_htab;
    fast_reload = t.fast_reload;
    cache_inhibit_pagetables = t.cache_inhibit_pagetables;
    htab_replacement = t.htab_replacement;
    tlb_replacement = t.tlb_replacement }

let describe t =
  let flag name b = if b then [ name ] else [] in
  let counter = t.vsid_source = Vsid_alloc.Context_counter in
  let parts =
    flag "bat" t.bat_kernel_mapping
    @ [ (if counter then "vsid-ctr" else "vsid-pid") ]
    @ [ Printf.sprintf "mult=%d" t.vsid_multiplier ]
    @ flag "fast-reload" t.fast_reload
    @ flag "fast-paths" t.fast_paths
    @ flag "htab" t.use_htab
    @ flag "lazy" counter
    @ (match t.flush_cutoff with
      | Some n when counter -> [ Printf.sprintf "cutoff=%d" n ]
      | Some _ | None -> [])
    @ flag "reclaim" t.idle_zombie_reclaim
    @ (match t.idle_clearing with
      | Clear_off -> []
      | Clear_cached -> [ "clear-cached" ]
      | Clear_uncached -> [ "clear-uncached" ])
    @ flag "clear-list" t.idle_clear_list
    @ flag "pt-uncached" t.cache_inhibit_pagetables
    @ flag "fb-bat" t.bat_framebuffer
    @ flag "idle-lock" t.idle_cache_lock
    @ flag "preload" t.cache_preload
    @ (match t.htab_replacement with
      | `Arbitrary -> []
      | `Second_chance -> [ "htab-2nd-chance" ]
      | `Zombie_aware -> [ "htab-zombie-aware" ])
    @ (match t.tlb_replacement with
      | Ppc.Tlb.Lru -> []
      | Ppc.Tlb.Fifo -> [ "tlb-fifo" ]
      | Ppc.Tlb.Rand -> [ "tlb-random" ])
  in
  String.concat "," parts
