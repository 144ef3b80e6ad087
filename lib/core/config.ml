module Policy = Kernel_sim.Policy
module Vsid_alloc = Kernel_sim.Vsid_alloc

let baseline = Policy.baseline
let optimized = Policy.optimized

let baseline_with_bat = { baseline with Policy.bat_kernel_mapping = true }

let baseline_with_scatter_mult m =
  { baseline with Policy.vsid_multiplier = m }

let baseline_with_scatter =
  baseline_with_scatter_mult Vsid_alloc.scatter_multiplier

let baseline_with_fast_reload = { baseline with Policy.fast_reload = true }

let optimized_no_htab = { optimized with Policy.use_htab = false }

let optimized_precise_flush =
  { optimized with
    Policy.vsid_source = Vsid_alloc.Pid_based;
    flush_cutoff = None;
    idle_zombie_reclaim = false }

let optimized_no_reclaim =
  { optimized with Policy.idle_zombie_reclaim = false }

let optimized_with_cutoff cutoff =
  { optimized with Policy.flush_cutoff = cutoff }

let optimized_pt_uncached =
  { optimized with Policy.cache_inhibit_pagetables = true }

let optimized_fb_bat = { optimized with Policy.bat_framebuffer = true }

let optimized_idle_lock = { optimized with Policy.idle_cache_lock = true }

let optimized_preload = { optimized with Policy.cache_preload = true }

let second_chance_no_reclaim =
  { optimized_no_reclaim with Policy.htab_replacement = `Second_chance }

let zombie_aware_no_reclaim =
  { optimized_no_reclaim with Policy.htab_replacement = `Zombie_aware }

(* §9 presets start from a kernel that is otherwise optimized so the
   clearing effect is isolated, as the paper's experiment was. *)
let clearing_off =
  { optimized with
    Policy.idle_clearing = Policy.Clear_off;
    idle_clear_list = false }

let clearing_cached_list =
  { optimized with
    Policy.idle_clearing = Policy.Clear_cached;
    idle_clear_list = true }

let clearing_uncached_nolist =
  { optimized with
    Policy.idle_clearing = Policy.Clear_uncached;
    idle_clear_list = false }

let clearing_uncached_list =
  { optimized with
    Policy.idle_clearing = Policy.Clear_uncached;
    idle_clear_list = true }

let all_named =
  [ ("baseline", baseline);
    ("optimized", optimized);
    ("baseline+bat", baseline_with_bat);
    ("baseline+scatter", baseline_with_scatter);
    ("baseline+fast-reload", baseline_with_fast_reload);
    ("optimized-no-htab", optimized_no_htab);
    ("optimized-precise-flush", optimized_precise_flush);
    ("optimized-no-reclaim", optimized_no_reclaim);
    ("optimized-pt-uncached", optimized_pt_uncached);
    ("optimized+fb-bat", optimized_fb_bat);
    ("optimized+idle-lock", optimized_idle_lock);
    ("optimized+preload", optimized_preload);
    ("second-chance-no-reclaim", second_chance_no_reclaim);
    ("zombie-aware-no-reclaim", zombie_aware_no_reclaim);
    ("clearing-off", clearing_off);
    ("clearing-cached-list", clearing_cached_list);
    ("clearing-uncached-nolist", clearing_uncached_nolist);
    ("clearing-uncached-list", clearing_uncached_list) ]

let find name = List.assoc_opt name all_named
