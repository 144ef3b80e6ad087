(* The layer ladder: host ns per call of each layer's public entry
   point, every rung driving the same batch of addresses from the
   workload's own loop.  Adjacent rungs subtract into self costs:

     bat.translate_pa, tlb.lookup_slot, cache.access   (the probes)
     memsys.data_ref   = cache.access + memsys.self
     mmu.access_pa     = bat + tlb + memsys.data_ref + mmu.self
     kernel.touch      = mmu.access_pa + kernel.touch_self

   and on the reload loop

     mmu.reload        = mmu.access_pa + htab.search + reload_engine.self

   Rungs are timed round-robin (every rung once per round) so host drift
   lands on all of them alike, and each reports the median over rounds,
   net of the [harness] rung: the same loop calling a function that does
   nothing but bump a counter.

   [plant] adds a fixed spin to every call of every rung whose call path
   reaches the named layer — a stand-in for that layer getting slower,
   used by the self-test to prove the subtraction attributes a cost to
   the layer that owns it. *)

open Ppc
module Kernel = Kernel_sim.Kernel

type rung = {
  name : string;
  reaches : string list;  (* layers this rung's call path goes through *)
  call : int -> unit;  (* one call on the batch's i-th address *)
}

let sink = ref 0

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := Sys.opaque_identity (!x + i)
  done;
  sink := !sink + !x

let harness = { name = "harness"; reaches = []; call = (fun i -> sink := !sink + i) }

let warm_rungs (l : Work.loop) =
  let k = l.Work.k in
  let mmu = Kernel.mmu k and ms = Kernel.memsys k in
  let dbat = Mmu.dbat mmu and dtlb = Mmu.dtlb mmu and dc = Memsys.dcache ms in
  let eas = l.Work.eas in
  let vpns =
    Array.map
      (fun ea -> Addr.vpn_of ~vsid:(Segment.vsid_for (Mmu.segments mmu) ea) ~ea)
      eas
  in
  let pas = Array.map (fun ea -> Mmu.access_pa mmu Mmu.Load ea) eas in
  [ harness;
    { name = "bat.translate_pa";
      reaches = [ "bat" ];
      call = (fun i -> sink := !sink + Bat.translate_pa dbat eas.(i)) };
    { name = "tlb.lookup_slot";
      reaches = [ "tlb" ];
      call = (fun i -> sink := !sink + Tlb.lookup_slot dtlb vpns.(i)) };
    { name = "cache.access";
      reaches = [ "cache" ];
      call =
        (fun i ->
          match
            Cache.access dc ~source:Cache.User ~inhibited:false ~write:false
              pas.(i)
          with
          | Cache.Hit -> incr sink
          | Cache.Miss _ | Cache.Bypass -> ()) };
    { name = "memsys.data_ref";
      reaches = [ "cache"; "memsys" ];
      call =
        (fun i ->
          Memsys.data_ref ms ~source:Cache.User ~inhibited:false ~write:false
            pas.(i)) };
    { name = "mmu.access_pa";
      reaches = [ "bat"; "tlb"; "cache"; "memsys"; "mmu" ];
      call = (fun i -> sink := !sink + Mmu.access_pa mmu Mmu.Load eas.(i)) };
    { name = "kernel.touch";
      reaches = [ "bat"; "tlb"; "cache"; "memsys"; "mmu"; "kernel" ];
      call = (fun i -> Kernel.touch k Mmu.Load eas.(i)) } ]

let noop_ref (_ : Addr.pa) = ()

let reload_rungs (l : Work.loop) =
  let mmu = Kernel.mmu l.Work.k in
  let htab =
    match Mmu.htab mmu with
    | Some h -> h
    | None -> invalid_arg "Rungs.reload_rungs: the machine has no htab"
  in
  let eas = l.Work.eas and kinds = l.Work.kinds in
  let vsids = Array.map (fun ea -> Segment.vsid_for (Mmu.segments mmu) ea) eas in
  let pidx = Array.map Addr.page_index eas in
  [ harness;
    { name = "htab.search";
      reaches = [ "htab" ];
      call =
        (fun i ->
          match
            Htab.search htab ~vsid:vsids.(i) ~page_index:pidx.(i)
              ~on_ref:noop_ref
          with
          | Some _ -> incr sink
          | None -> ()) };
    { name = "mmu.reload";
      reaches = [ "htab"; "reload_engine"; "mmu" ];
      call = (fun i -> sink := !sink + Mmu.access_pa mmu kinds.(i) eas.(i)) } ]

(* Average PTE slots examined per htab search over the loop's pages. *)
let probe_len (l : Work.loop) =
  let mmu = Kernel.mmu l.Work.k in
  match Mmu.htab mmu with
  | None -> 0.
  | Some htab ->
      let total =
        Array.fold_left
          (fun acc ea ->
            let _, n =
              Htab.search_counted htab
                ~vsid:(Segment.vsid_for (Mmu.segments mmu) ea)
                ~page_index:(Addr.page_index ea) ~on_ref:noop_ref
            in
            acc + n)
          0 l.Work.eas
      in
      float_of_int total /. float_of_int (Array.length l.Work.eas)

type measured = {
  m_name : string;
  m_ns : float;  (* median host ns per call *)
  m_words : float;  (* minor words per call, all rounds *)
}

(* [rounds] rounds of [calls] calls per rung.  The batch's addresses are
   used cyclically, continuing where the previous round stopped, so the
   reload rungs keep missing the TLB. *)
let measure ?plant ~rounds ~calls (rungs : rung list) ~n_addrs =
  let rungs = Array.of_list rungs in
  let nr = Array.length rungs in
  let spins =
    Array.map
      (fun r ->
        match plant with
        | Some (layer, n) when List.mem layer r.reaches -> n
        | _ -> 0)
      rungs
  in
  let samples = Array.make_matrix nr rounds 0. in
  let words = Array.make nr 0. in
  let cursor = Array.make nr 0 in
  for round = 0 to rounds - 1 do
    for r = 0 to nr - 1 do
      let call = rungs.(r).call and s = spins.(r) in
      let j = ref cursor.(r) in
      let w0 = Gc.minor_words () in
      let t0 = Clock.now () in
      for _ = 1 to calls do
        call !j;
        if s > 0 then spin s;
        incr j;
        if !j = n_addrs then j := 0
      done;
      let t1 = Clock.now () in
      words.(r) <- words.(r) +. (Gc.minor_words () -. w0);
      cursor.(r) <- !j;
      samples.(r).(round) <- float_of_int (t1 - t0) /. float_of_int calls
    done
  done;
  Array.to_list
    (Array.mapi
       (fun r rung ->
         { m_name = rung.name;
           m_ns = Stats.median samples.(r);
           m_words = words.(r) /. float_of_int (rounds * calls) })
       rungs)

let find ms name =
  match List.find_opt (fun m -> m.m_name = name) ms with
  | Some m -> m
  | None -> invalid_arg ("Rungs.find: " ^ name)

(* net host ns per call: the rung minus the harness rung *)
let ns_of ms name = (find ms name).m_ns -. (find ms "harness").m_ns

let words_of ms name = (find ms name).m_words

(* The warm ladder's metrics (name, unit, value), self costs included. *)
let warm_metrics ms =
  let ns = ns_of ms in
  [ ("bat.translate_pa_ns", "ns", ns "bat.translate_pa");
    ("tlb.lookup_slot_ns", "ns", ns "tlb.lookup_slot");
    ("cache.access_ns", "ns", ns "cache.access");
    ("memsys.data_ref_ns", "ns", ns "memsys.data_ref");
    ("mmu.access_pa_ns", "ns", ns "mmu.access_pa");
    ("kernel.touch_ns", "ns", ns "kernel.touch");
    ("kernel.touch_words", "words", words_of ms "kernel.touch");
    ("memsys.self_ns", "ns", ns "memsys.data_ref" -. ns "cache.access");
    ( "mmu.self_ns",
      "ns",
      ns "mmu.access_pa" -. ns "memsys.data_ref" -. ns "tlb.lookup_slot"
      -. ns "bat.translate_pa" );
    ("kernel.touch_self_ns", "ns", ns "kernel.touch" -. ns "mmu.access_pa") ]

let reload_metrics ~warm ms ~probe_len =
  [ ("htab.search_ns", "ns", ns_of ms "htab.search");
    ("htab.probe_len", "slots", probe_len);
    ("mmu.reload_ns", "ns", ns_of ms "mmu.reload");
    ("mmu.reload_words", "words", words_of ms "mmu.reload");
    ( "reload_engine.self_ns",
      "ns",
      ns_of ms "mmu.reload" -. ns_of warm "mmu.access_pa"
      -. ns_of ms "htab.search" ) ]
