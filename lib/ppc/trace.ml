(* Typed event tracing: a preallocated ring buffer of simulator events,
   latency histograms, and a view of the timeline recorder's Perf
   snapshots.

   Everything here is observation only: emitting never charges cycles,
   touches the caches, or draws from an RNG, so a traced run and an
   untraced run of the same seed produce byte-identical Perf counts.
   The disabled path is one flag check and allocates nothing. *)

type kind =
  | Itlb_miss
  | Dtlb_miss
  | Tlb_reload
  | Tlb_evict
  | Htab_probe
  | Htab_evict
  | Bat_hit
  | Context_switch
  | Run_slice
  | Idle_window
  | Flush_page
  | Flush_context
  | Page_fault
  | Idle_prezero
  | Idle_reclaim
  | Vma_map
  | Vma_unmap

let all_kinds =
  [ Itlb_miss; Dtlb_miss; Tlb_reload; Tlb_evict; Htab_probe; Htab_evict;
    Bat_hit; Context_switch; Run_slice; Idle_window; Flush_page;
    Flush_context; Page_fault; Idle_prezero; Idle_reclaim; Vma_map;
    Vma_unmap ]

let n_kinds = List.length all_kinds

let int_of_kind = function
  | Itlb_miss -> 0
  | Dtlb_miss -> 1
  | Tlb_reload -> 2
  | Tlb_evict -> 3
  | Htab_probe -> 4
  | Htab_evict -> 5
  | Bat_hit -> 6
  | Context_switch -> 7
  | Run_slice -> 8
  | Idle_window -> 9
  | Flush_page -> 10
  | Flush_context -> 11
  | Page_fault -> 12
  | Idle_prezero -> 13
  | Idle_reclaim -> 14
  | Vma_map -> 15
  | Vma_unmap -> 16

let kind_array = Array.of_list all_kinds
let kind_of_int i = kind_array.(i)

let kind_name = function
  | Itlb_miss -> "itlb_miss"
  | Dtlb_miss -> "dtlb_miss"
  | Tlb_reload -> "tlb_reload"
  | Tlb_evict -> "tlb_evict"
  | Htab_probe -> "htab_probe"
  | Htab_evict -> "htab_evict"
  | Bat_hit -> "bat_hit"
  | Context_switch -> "context_switch"
  | Run_slice -> "run_slice"
  | Idle_window -> "idle_window"
  | Flush_page -> "flush_page"
  | Flush_context -> "flush_context"
  | Page_fault -> "page_fault"
  | Idle_prezero -> "idle_prezero"
  | Idle_reclaim -> "idle_reclaim"
  | Vma_map -> "vma_map"
  | Vma_unmap -> "vma_unmap"

type event = {
  e_kind : kind;
  e_cycle : int;
  e_pid : int;
  e_a : int;
  e_b : int;
}

type t = {
  mutable enabled : bool;
  (* ring storage, structure-of-arrays so an emit writes five ints *)
  mutable r_kind : int array;
  mutable r_cycle : int array;
  mutable r_pid : int array;
  mutable r_a : int array;
  mutable r_b : int array;
  mutable head : int;  (* total events ever emitted *)
  kind_counts : int array;  (* per-kind totals, immune to ring wrap *)
  timeline : Recorder.t;  (* owned by Memsys; its clock stamps events *)
  (* latency histograms *)
  hist_probe : Hist.t;
  hist_tlb_service : Hist.t;
  hist_ctxsw : Hist.t;
}

let default_ring = 65536

let create ~timeline =
  { enabled = false;
    r_kind = [||];
    r_cycle = [||];
    r_pid = [||];
    r_a = [||];
    r_b = [||];
    head = 0;
    kind_counts = Array.make n_kinds 0;
    timeline;
    hist_probe = Hist.create ();
    hist_tlb_service = Hist.create ();
    hist_ctxsw = Hist.create () }

let enable ?(ring = default_ring) t =
  let ring = max 1 ring in
  t.r_kind <- Array.make ring 0;
  t.r_cycle <- Array.make ring 0;
  t.r_pid <- Array.make ring 0;
  t.r_a <- Array.make ring 0;
  t.r_b <- Array.make ring 0;
  t.head <- 0;
  t.enabled <- true

(* --- emission --------------------------------------------------------- *)

let enabled t = t.enabled

let emit t kind ~pid ~a ~b =
  if t.enabled then begin
    let k = int_of_kind kind in
    t.kind_counts.(k) <- t.kind_counts.(k) + 1;
    let cap = Array.length t.r_kind in
    let i = t.head mod cap in
    t.r_kind.(i) <- k;
    t.r_cycle.(i) <- t.timeline.Recorder.perf.Perf.cycles;
    t.r_pid.(i) <- pid;
    t.r_a.(i) <- a;
    t.r_b.(i) <- b;
    t.head <- t.head + 1
  end

let emit_htab_probe t ~pid ~len ~hit =
  if t.enabled then begin
    Hist.observe t.hist_probe len;
    emit t Htab_probe ~pid ~a:len ~b:(if hit then 1 else 0)
  end

let emit_tlb_service t ~pid ~ea ~cost =
  if t.enabled then begin
    Hist.observe t.hist_tlb_service cost;
    emit t Tlb_reload ~pid ~a:ea ~b:cost
  end

let emit_context_switch t ~pid ~cost =
  if t.enabled then begin
    Hist.observe t.hist_ctxsw cost;
    emit t Context_switch ~pid ~a:pid ~b:cost
  end

(* --- inspection ------------------------------------------------------- *)

let capacity t = Array.length t.r_kind
let total t = t.head

let length t =
  let cap = capacity t in
  if cap = 0 then 0 else min t.head cap

let dropped t = t.head - length t

let kind_count t kind = t.kind_counts.(int_of_kind kind)

let iter t f =
  let cap = capacity t in
  if cap > 0 then begin
    let n = length t in
    let first = t.head - n in
    for j = first to t.head - 1 do
      let i = j mod cap in
      f
        { e_kind = kind_of_int t.r_kind.(i);
          e_cycle = t.r_cycle.(i);
          e_pid = t.r_pid.(i);
          e_a = t.r_a.(i);
          e_b = t.r_b.(i) }
    done
  end

let events t =
  let out = ref [] in
  iter t (fun e -> out := e :: !out);
  List.rev !out

(* --- the timeline, a view of the timeline recorder -------------------- *)

let samples t =
  List.map
    (fun s -> (s.Recorder.s_cycle, s.Recorder.s_perf))
    (Recorder.samples t.timeline)

(* --- histograms ------------------------------------------------------- *)

let hist_probe t = t.hist_probe
let hist_tlb_service t = t.hist_tlb_service
let hist_ctxsw t = t.hist_ctxsw
