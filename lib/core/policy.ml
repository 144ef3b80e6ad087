(* The first-class policy layer: every MM decision a workload varies,
   as one declarative catalog of named knobs over
   [Kernel_sim.Policy.t] — string get/set for the CLI
   ([--policy KEY=VALUE]), JSON round-trip for policy files and results
   documents, and the origin/section table the docs and tuner render. *)

module Kpolicy = Kernel_sim.Policy
module Vsid_alloc = Kernel_sim.Vsid_alloc

type t = Kpolicy.t

let paper_default = Kpolicy.optimized

type kind = Kbool | Kint | Kint_or_none | Kenum of string list

type knob = {
  key : string;
  kind : kind;
  origin : string;
  section : string;
  doc : string;
  get : t -> string;
  set : t -> string -> (t, string) result;
}

(* --- value parsers --------------------------------------------------- *)

let parse_bool key s =
  match s with
  | "true" -> Ok true
  | "false" -> Ok false
  | _ -> Error (Printf.sprintf "%s: expected true or false, got %S" key s)

let parse_int ?(min = 1) key s =
  match int_of_string_opt s with
  | Some n when n >= min -> Ok n
  | Some n -> Error (Printf.sprintf "%s: %d is below the minimum %d" key n min)
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key s)

let bknob key ~origin ~section ~doc get set =
  { key;
    kind = Kbool;
    origin;
    section;
    doc;
    get = (fun p -> string_of_bool (get p));
    set =
      (fun p s -> Result.map (set p) (parse_bool key s)) }

let iknob key ~origin ~section ~doc get set =
  { key;
    kind = Kint;
    origin;
    section;
    doc;
    get = (fun p -> string_of_int (get p));
    set = (fun p s -> Result.map (set p) (parse_int key s)) }

let eknob key ~origin ~section ~doc ~values get set =
  { key;
    kind = Kenum (List.map fst values);
    origin;
    section;
    doc;
    get =
      (fun p ->
        let v = get p in
        match List.find_opt (fun (_, x) -> x = v) values with
        | Some (name, _) -> name
        | None -> assert false);
    set =
      (fun p s ->
        match List.assoc_opt s values with
        | Some v -> Ok (set p v)
        | None ->
            Error
              (Printf.sprintf "%s: expected one of %s, got %S" key
                 (String.concat "/" (List.map fst values))
                 s)) }

(* --- the catalog ----------------------------------------------------- *)

let knobs =
  [ bknob "bat_kernel_mapping" ~origin:"kernel_sim/kernel.ml (boot)"
      ~section:"5.1"
      ~doc:"map kernel text/data/htab with a BAT register instead of PTEs"
      (fun p -> p.Kpolicy.bat_kernel_mapping)
      (fun p v -> { p with Kpolicy.bat_kernel_mapping = v });
    bknob "bat_framebuffer" ~origin:"kernel_sim/kernel.ml (switch_to)"
      ~section:"5.1"
      ~doc:"per-process frame-buffer BAT switched at context-switch time"
      (fun p -> p.Kpolicy.bat_framebuffer)
      (fun p v -> { p with Kpolicy.bat_framebuffer = v });
    eknob "vsid_source" ~origin:"kernel_sim/vsid_alloc.ml" ~section:"7"
      ~doc:"PID-derived VSIDs vs the context counter enabling lazy flushes"
      ~values:
        [ ("pid", Vsid_alloc.Pid_based);
          ("counter", Vsid_alloc.Context_counter) ]
      (fun p -> p.Kpolicy.vsid_source)
      (fun p v -> { p with Kpolicy.vsid_source = v });
    iknob "vsid_multiplier" ~origin:"kernel_sim/vsid_alloc.ml" ~section:"5.2"
      ~doc:"the VSID scatter constant (1 = naive, 897 = the paper's)"
      (fun p -> p.Kpolicy.vsid_multiplier)
      (fun p v -> { p with Kpolicy.vsid_multiplier = v });
    bknob "fast_reload" ~origin:"ppc/mmu.ml (handlers)" ~section:"6.1"
      ~doc:"hand-optimized assembly miss handlers vs the original C"
      (fun p -> p.Kpolicy.fast_reload)
      (fun p v -> { p with Kpolicy.fast_reload = v });
    bknob "fast_paths" ~origin:"kernel_sim/kparams.ml (path lengths)"
      ~section:"6.1"
      ~doc:"optimized syscall/switch/tick entry-exit path lengths"
      (fun p -> p.Kpolicy.fast_paths)
      (fun p v -> { p with Kpolicy.fast_paths = v });
    bknob "use_htab" ~origin:"ppc/reload_engine.ml" ~section:"6.2"
      ~doc:"on 603-style machines, search the htab before the page tables"
      (fun p -> p.Kpolicy.use_htab)
      (fun p v -> { p with Kpolicy.use_htab = v });
    { key = "flush_cutoff";
      kind = Kint_or_none;
      origin = "kernel_sim/kernel.ml (flush_range)";
      section = "7";
      doc =
        "range flushes above this many pages become whole-context VSID \
         resets; none = always precise (the paper settled on 20)";
      get =
        (fun p ->
          match p.Kpolicy.flush_cutoff with
          | None -> "none"
          | Some n -> string_of_int n);
      set =
        (fun p s ->
          if s = "none" then Ok { p with Kpolicy.flush_cutoff = None }
          else
            Result.map
              (fun n -> { p with Kpolicy.flush_cutoff = Some n })
              (parse_int ~min:0 "flush_cutoff" s)) };
    bknob "idle_zombie_reclaim" ~origin:"kernel_sim/kernel.ml (idle_slice)"
      ~section:"7" ~doc:"idle task scans the htab invalidating zombie PTEs"
      (fun p -> p.Kpolicy.idle_zombie_reclaim)
      (fun p v -> { p with Kpolicy.idle_zombie_reclaim = v });
    eknob "idle_clearing" ~origin:"kernel_sim/pagepool.ml" ~section:"9"
      ~doc:"what the idle task does with free pages"
      ~values:
        [ ("off", Kpolicy.Clear_off);
          ("cached", Kpolicy.Clear_cached);
          ("uncached", Kpolicy.Clear_uncached) ]
      (fun p -> p.Kpolicy.idle_clearing)
      (fun p v -> { p with Kpolicy.idle_clearing = v });
    bknob "idle_clear_list" ~origin:"kernel_sim/pagepool.ml" ~section:"9"
      ~doc:"hand idle-cleared pages to get_free_page via the pre-zeroed list"
      (fun p -> p.Kpolicy.idle_clear_list)
      (fun p v -> { p with Kpolicy.idle_clear_list = v });
    bknob "cache_inhibit_pagetables" ~origin:"ppc/mmu.ml" ~section:"8"
      ~doc:"keep page-table and htab references out of the data cache"
      (fun p -> p.Kpolicy.cache_inhibit_pagetables)
      (fun p v -> { p with Kpolicy.cache_inhibit_pagetables = v });
    bknob "idle_cache_lock" ~origin:"ppc/memsys.ml" ~section:"10.1"
      ~doc:"lock both caches while the idle task runs"
      (fun p -> p.Kpolicy.idle_cache_lock)
      (fun p v -> { p with Kpolicy.idle_cache_lock = v });
    bknob "cache_preload" ~origin:"kernel_sim/kernel.ml (switch_to)"
      ~section:"10.2"
      ~doc:"prefetch the incoming task's hot kernel data at a switch"
      (fun p -> p.Kpolicy.cache_preload)
      (fun p v -> { p with Kpolicy.cache_preload = v });
    eknob "htab_replacement" ~origin:"ppc/htab.ml (via Mmu knobs)"
      ~section:"7" ~doc:"victim selection on htab overflow"
      ~values:
        [ ("arbitrary", `Arbitrary);
          ("second-chance", `Second_chance);
          ("zombie-aware", `Zombie_aware) ]
      (fun p -> p.Kpolicy.htab_replacement)
      (fun p v -> { p with Kpolicy.htab_replacement = v });
    eknob "tlb_replacement" ~origin:"ppc/tlb.ml (extracted)"
      ~section:"hw (ablation)"
      ~doc:"TLB victim selection; lru is the 603/604 hardware"
      ~values:
        [ ("lru", Ppc.Tlb.Lru);
          ("fifo", Ppc.Tlb.Fifo);
          ("random", Ppc.Tlb.Rand) ]
      (fun p -> p.Kpolicy.tlb_replacement)
      (fun p v -> { p with Kpolicy.tlb_replacement = v }) ]

let find_knob key = List.find_opt (fun k -> k.key = key) knobs

let values_of_kind = function
  | Kbool -> "true|false"
  | Kint -> "int"
  | Kint_or_none -> "int|none"
  | Kenum names -> String.concat "|" names

type knob_info = {
  ki_key : string;
  ki_origin : string;
  ki_section : string;
  ki_values : string;
  ki_doc : string;
}

let catalog =
  List.map
    (fun k ->
      { ki_key = k.key;
        ki_origin = k.origin;
        ki_section = k.section;
        ki_values = values_of_kind k.kind;
        ki_doc = k.doc })
    knobs

let knob_keys = List.map (fun k -> k.key) knobs

let get p key =
  match find_knob key with
  | Some k -> Ok (k.get p)
  | None -> Error (Printf.sprintf "unknown policy knob %S" key)

let set p key value =
  match find_knob key with
  | Some k -> k.set p value
  | None -> Error (Printf.sprintf "unknown policy knob %S" key)

let apply_kv p kv =
  match String.index_opt kv '=' with
  | None ->
      (* a bare word names a preset, which becomes the new base *)
      (match Config.find kv with
      | Some preset -> Ok preset
      | None ->
          Error
            (Printf.sprintf
               "%S is neither KEY=VALUE nor a known preset (try one of %s)"
               kv
               (String.concat ", " (List.map fst Config.all_named))))
  | Some i ->
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      set p key v

let equal (a : t) (b : t) = a = b

let diff a b =
  List.filter_map
    (fun k ->
      let va = k.get a and vb = k.get b in
      if va = vb then None else Some (k.key, va, vb))
    knobs

(* --- JSON ------------------------------------------------------------ *)

let json_of_knob p k =
  match k.kind with
  | Kbool -> Json.Bool (k.get p = "true")
  | Kint -> Json.Int (int_of_string (k.get p))
  | Kint_or_none ->
      let s = k.get p in
      if s = "none" then Json.Null else Json.Int (int_of_string s)
  | Kenum _ -> Json.String (k.get p)

let to_json p =
  Json.Obj (List.map (fun k -> (k.key, json_of_knob p k)) knobs)

let string_of_value key = function
  | Json.Bool b -> Ok (string_of_bool b)
  | Json.Int n -> Ok (string_of_int n)
  | Json.String s -> Ok s
  | Json.Null -> Ok "none"
  | Json.Float _ | Json.List _ | Json.Obj _ ->
      Error (Printf.sprintf "%s: expected a scalar JSON value" key)

let of_json = function
  | Json.Obj members ->
      let base =
        match List.assoc_opt "base" members with
        | None -> Ok paper_default
        | Some (Json.String name) -> (
            match Config.find name with
            | Some p -> Ok p
            | None -> Error (Printf.sprintf "unknown base preset %S" name))
        | Some _ -> Error "base: expected a preset name string"
      in
      List.fold_left
        (fun acc (key, v) ->
          match acc with
          | Error _ as e -> e
          | Ok p ->
              if key = "base" then Ok p
              else (
                match find_knob key with
                | None -> Error (Printf.sprintf "unknown policy knob %S" key)
                | Some k -> (
                    match string_of_value key v with
                    | Error _ as e -> e
                    | Ok s -> k.set p s)))
        base members
  | _ -> Error "policy document must be a JSON object"

let of_string s =
  match Json.of_string s with
  | Error e -> Error (Printf.sprintf "policy JSON: %s" e)
  | Ok j -> of_json j

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | body -> of_string body
