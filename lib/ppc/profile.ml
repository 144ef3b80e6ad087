(* Attribution profiling: who owns every miss, where the htab clusters.

   Where Trace records a stream of events, this layer maintains running
   *attributions*: per-(PID, segment, kind) miss and reload-cost
   accounts, per-kind hot-page tables and a kernel-vs-user TLB slot
   census with high-water marks.  Htab bucket occupancy is a view of the
   timeline recorder's htab gauges.

   Everything here is observation only: charging never costs cycles,
   touches the caches, or draws from an RNG, so a profiled run and an
   unprofiled run of the same seed produce byte-identical Perf counts.
   The disabled path is one flag check per instrumented site and
   allocates nothing. *)

type miss_kind =
  | Itlb
  | Dtlb
  | Htab_miss

let all_kinds = [ Itlb; Dtlb; Htab_miss ]
let n_kinds = List.length all_kinds

let kind_index = function Itlb -> 0 | Dtlb -> 1 | Htab_miss -> 2
let kind_of_index = function 0 -> Itlb | 1 -> Dtlb | _ -> Htab_miss

let kind_name = function
  | Itlb -> "itlb"
  | Dtlb -> "dtlb"
  | Htab_miss -> "htab"

(* One account: misses charged and reload cycles attributed to them. *)
type cell = {
  mutable a_count : int;
  mutable a_cost : int;
}

(* Attribution keys pack (pid, segment, kind) into one int so the table
   is a flat int-keyed hashtable: pid in the high bits, the 4-bit
   segment-register index, then the 2-bit kind. *)
let key ~pid ~seg ~kind = (pid lsl 6) lor (seg lsl 2) lor kind_index kind
let key_pid k = k lsr 6
let key_seg k = (k lsr 2) land 0xF
let key_kind k = kind_of_index (k land 3)

type htab_sample = {
  h_cycle : int;
  h_valid : int;     (* valid PTEs *)
  h_capacity : int;  (* total PTE slots *)
  h_zombie : int;    (* valid PTEs whose VSID is no longer live *)
  h_chains : int array;
      (* h_chains.(i) = PTEGs holding exactly [i] valid PTEs — the
         collision-chain length histogram of §5.2 *)
}

type census = {
  n_samples : int;          (* censuses taken (one per profiled reload) *)
  avg_share_pct : float;    (* mean kernel share of occupied slots, % *)
  kernel_high_water : int;  (* most kernel-owned slots ever held *)
  kernel_now : int;         (* kernel-owned slots at the last census *)
  occupied_now : int;       (* occupied slots at the last census *)
  slot_capacity : int;      (* total TLB slots (I + D) *)
}

type t = {
  mutable enabled : bool;
  attribution : (int, cell) Hashtbl.t;
  hot_pages : (int, cell) Hashtbl.t array;  (* per kind: page EA -> cell *)
  (* kernel-vs-user TLB slot census *)
  mutable census_samples : int;
  mutable census_share_sum : float;
  mutable census_kernel_hw : int;
  mutable census_kernel_now : int;
  mutable census_occupied_now : int;
  mutable tlb_capacity : int;
  timeline : Recorder.t;  (* owned by Memsys; read by [samples] *)
}

(* --- lifecycle -------------------------------------------------------- *)

let create ~timeline =
  { enabled = false;
    attribution = Hashtbl.create 64;
    hot_pages = Array.init n_kinds (fun _ -> Hashtbl.create 64);
    census_samples = 0;
    census_share_sum = 0.0;
    census_kernel_hw = 0;
    census_kernel_now = 0;
    census_occupied_now = 0;
    tlb_capacity = 0;
    timeline }

let enable t = t.enabled <- true
let enabled t = t.enabled

(* --- hooks wired by the MMU ------------------------------------------- *)

let set_tlb_capacity t n = t.tlb_capacity <- n

(* --- charging (call sites guard on [enabled]) ------------------------- *)

let account tbl k ~cost =
  match Hashtbl.find_opt tbl k with
  | Some c ->
      c.a_count <- c.a_count + 1;
      c.a_cost <- c.a_cost + cost
  | None -> Hashtbl.add tbl k { a_count = 1; a_cost = cost }

let charge_miss t ~pid ~seg ~page ~kind ~cost =
  if t.enabled then begin
    account t.attribution (key ~pid ~seg ~kind) ~cost;
    account t.hot_pages.(kind_index kind) page ~cost
  end

let note_tlb_census t ~kernel ~occupied =
  if t.enabled then begin
    t.census_samples <- t.census_samples + 1;
    if occupied > 0 then
      t.census_share_sum <-
        t.census_share_sum
        +. (100.0 *. float_of_int kernel /. float_of_int occupied);
    if kernel > t.census_kernel_hw then t.census_kernel_hw <- kernel;
    t.census_kernel_now <- kernel;
    t.census_occupied_now <- occupied
  end

(* --- inspection ------------------------------------------------------- *)

type attribution_row = {
  r_pid : int;
  r_seg : int;
  r_kind : miss_kind;
  r_count : int;
  r_cost : int;
}

let attribution t =
  let rows =
    Hashtbl.fold
      (fun k c acc ->
        { r_pid = key_pid k;
          r_seg = key_seg k;
          r_kind = key_kind k;
          r_count = c.a_count;
          r_cost = c.a_cost }
        :: acc)
      t.attribution []
  in
  (* deterministic order: by pid, then segment, then kind *)
  List.sort
    (fun a b ->
      match compare a.r_pid b.r_pid with
      | 0 -> (
          match compare a.r_seg b.r_seg with
          | 0 -> compare (kind_index a.r_kind) (kind_index b.r_kind)
          | c -> c)
      | c -> c)
    rows

let hot_pages t kind ~top =
  let rows =
    Hashtbl.fold
      (fun page c acc -> (page, c.a_count, c.a_cost) :: acc)
      t.hot_pages.(kind_index kind) []
  in
  let sorted =
    (* hottest (by attributed cost) first; page address breaks ties *)
    List.sort
      (fun (pa, _, ca) (pb, _, cb) ->
        match compare cb ca with 0 -> compare pa pb | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < top) sorted

let census t =
  { n_samples = t.census_samples;
    avg_share_pct =
      (if t.census_samples = 0 then 0.0
       else t.census_share_sum /. float_of_int t.census_samples);
    kernel_high_water = t.census_kernel_hw;
    kernel_now = t.census_kernel_now;
    occupied_now = t.census_occupied_now;
    slot_capacity = t.tlb_capacity }

(* --- htab occupancy, a view of the timeline recorder's gauges --------- *)

(* The MMU's "htab" gauge is [| valid; capacity; zombie |] and its
   "htab_chains" gauge the PTEG chain-length histogram; a machine
   without an htab installs neither. *)
let htab_sample ~cycle ~htab ~chains =
  match (htab, chains) with
  | Some [| valid; capacity; zombie |], Some chains ->
      Some
        { h_cycle = cycle;
          h_valid = valid;
          h_capacity = capacity;
          h_zombie = zombie;
          h_chains = chains }
  | _ -> None

let samples t =
  List.filter_map
    (fun (s : Recorder.sample) ->
      let g name = List.assoc_opt name s.Recorder.s_gauges in
      htab_sample ~cycle:s.Recorder.s_cycle ~htab:(g "htab")
        ~chains:(g "htab_chains"))
    (Recorder.samples t.timeline)

(* A pure read of the current htab state (no sample recorded): exporters
   use this for the end-of-run snapshot even when the timeline was never
   armed. *)
let snapshot_htab t =
  let g = Recorder.gauge t.timeline in
  htab_sample ~cycle:t.timeline.Recorder.perf.Perf.cycles ~htab:(g "htab")
    ~chains:(g "htab_chains")

let total_misses t =
  Hashtbl.fold (fun _ c acc -> acc + c.a_count) t.attribution 0

let total_cost t =
  Hashtbl.fold (fun _ c acc -> acc + c.a_cost) t.attribution 0
