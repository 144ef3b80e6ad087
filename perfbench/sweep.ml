(* The [sweep] workload: the whole experiment registry through the
   supervised Runner, as [mmu_sim experiment --jobs N] runs it.

   Each experiment is wrapped so that the process hosting it (a forked
   worker, or this one at one job) measures its minor words, heap peak,
   host seconds and the summed performance counters of every kernel it
   booted (the SMP registry, armed for all boots, hands those over), and
   ships them back on the Runner's payload channel. *)

open Ppc
module Json = Mmu_tricks.Json
module Runner = Mmu_tricks.Runner
module Experiments = Mmu_tricks.Experiments
module Baseline = Mmu_tricks.Baseline
module Kernel = Kernel_sim.Kernel

type exp = {
  id : string;
  outcome : Runner.outcome;
  host_s : float;  (* nan unless timed and delivered *)
  words : float;
  majors : int;  (* major collections in the hosting process *)
  top_heap_words : int;
  perf : (string * int) list;  (* Perf.fields summed over its kernels *)
}

type sweep = { wall_s : float; exps : exp list }

let payload = ref None

let sum_perf kernels =
  let zero = List.map (fun (k, _) -> (k, 0)) (Perf.fields (Perf.create ())) in
  List.fold_left
    (fun acc k ->
      List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc (Perf.fields (Kernel.perf k)))
    zero kernels

(* [timed] adds the traced sweep's one span per experiment: two clock
   reads around it. *)
let wrap ~timed (id, f) =
  ( id,
    fun ?seed () ->
      payload := None;
      ignore (Kernel.drain_smp_registered () : Kernel.t list);
      let w0 = Gc.minor_words () in
      let m0 = (Gc.quick_stat ()).Gc.major_collections in
      let t0 = if timed then Clock.now () else 0 in
      let table = f ?seed () in
      let host_s = if timed then Clock.seconds_since t0 else nan in
      let words = Gc.minor_words () -. w0 in
      let gc = Gc.quick_stat () in
      let perf = sum_perf (Kernel.drain_smp_registered ()) in
      payload :=
        Some
          (Json.Obj
             [ ("host_s", Json.Float host_s);
               ("words", Json.Float words);
               ("majors", Json.Int (gc.Gc.major_collections - m0));
               ("top_heap_words", Json.Int gc.Gc.top_heap_words);
               ("perf", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) perf))
             ]);
      table )

let collect _id =
  let p = !payload in
  payload := None;
  p

let num key j =
  match Option.bind (Json.member key j) Json.to_float_opt with
  | Some v -> v
  | None -> nan

let exp_of (id, outcome, p) =
  match p with
  | None ->
      { id;
        outcome;
        host_s = nan;
        words = 0.;
        majors = 0;
        top_heap_words = 0;
        perf = [] }
  | Some j ->
      { id;
        outcome;
        host_s = num "host_s" j;
        words = num "words" j;
        majors = int_of_float (num "majors" j);
        top_heap_words = int_of_float (num "top_heap_words" j);
        perf =
          (match Json.member "perf" j with
          | Some (Json.Obj l) ->
              List.map
                (fun (n, v) ->
                  (n, match Json.to_int_opt v with Some i -> i | None -> 0))
                l
          | _ -> []) }

let run ~timed ~jobs ~seed =
  Kernel.set_smp_register true;
  Runner.collect_hook := collect;
  let t0 = Clock.now () in
  let rc =
    Fun.protect
      ~finally:(fun () ->
        Runner.collect_hook := (fun _ -> None);
        Kernel.set_smp_register false;
        ignore (Kernel.drain_smp_registered () : Kernel.t list))
      (fun () ->
        Runner.run_collect ~jobs ~seed ~timeout:120. ~retries:0
          (List.map (wrap ~timed) Experiments.all))
  in
  { wall_s = Clock.seconds_since t0; exps = List.map exp_of rc }

let ids = List.map fst Experiments.all

(* ------------------------------------------------------------ checks *)

let baseline_path = "baselines/seed42.json"

let load_baseline () = Baseline.load baseline_path

let table_of e =
  match e.outcome with Runner.Done t -> Some t | _ -> None

(* One failure message per experiment that did not produce a correct
   table.  At the baseline's seed every cell is compared within the
   baseline's tolerance; at any other seed the table must keep the
   baseline's shape (header, rows, numbers per cell).  [previous] (an
   earlier sweep of the same run) must match cell for cell. *)
let failures ~seed ~(baseline : Baseline.doc) ?previous s =
  List.filter_map
    (fun e ->
      match e.outcome with
      | Runner.Done t -> (
          let prev =
            Option.bind previous (fun p ->
                Option.bind
                  (List.find_opt (fun x -> x.id = e.id) p.exps)
                  table_of)
          in
          match (prev, List.assoc_opt e.id baseline.Baseline.d_entries) with
          | Some p, _ when p <> t ->
              Some (e.id ^ ": differs between two sweeps at the same seed")
          | _, None -> Some (e.id ^ ": not in " ^ baseline_path)
          | _, Some b ->
              let tol =
                if seed = baseline.Baseline.d_seed then
                  Baseline.tolerance_for baseline e.id
                else 3.0
              in
              let c = Baseline.check_table ~id:e.id ~tol ~baseline:b ~current:t in
              if c.Baseline.c_ok then None
              else
                Some
                  (e.id ^ ": "
                  ^ Option.value c.Baseline.c_detail ~default:"mismatch"))
      | o -> Some (e.id ^ ": " ^ Runner.describe o))
    s.exps

(* ------------------------------------------------------------- sums *)

let total_perf s =
  List.fold_left
    (fun acc e ->
      if e.perf = [] then acc
      else List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc e.perf)
    (List.map (fun (k, _) -> (k, 0)) (Perf.fields (Perf.create ())))
    s.exps

let words s = List.fold_left (fun acc e -> acc +. e.words) 0. s.exps

let majors s = List.fold_left (fun acc e -> acc + e.majors) 0 s.exps

let top_heap_words s =
  List.fold_left (fun acc e -> max acc e.top_heap_words) 0 s.exps
