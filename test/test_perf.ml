(* Performance counters: snapshot, diff, derived sums. *)
open Ppc

let test_create_zero () =
  let p = Perf.create () in
  Alcotest.(check int) "cycles zero" 0 p.Perf.cycles;
  Alcotest.(check int) "tlb misses zero" 0 (Perf.tlb_misses p)

let test_snapshot_diff () =
  let p = Perf.create () in
  p.Perf.cycles <- 100;
  p.Perf.dtlb_misses <- 5;
  let before = Perf.snapshot p in
  p.Perf.cycles <- 250;
  p.Perf.dtlb_misses <- 12;
  p.Perf.itlb_misses <- 3;
  let d = Perf.diff ~after:(Perf.snapshot p) ~before in
  Alcotest.(check int) "cycle delta" 150 d.Perf.cycles;
  Alcotest.(check int) "dtlb delta" 7 d.Perf.dtlb_misses;
  Alcotest.(check int) "combined misses" 10 (Perf.tlb_misses d)

let test_snapshot_is_copy () =
  let p = Perf.create () in
  let s = Perf.snapshot p in
  p.Perf.cycles <- 42;
  Alcotest.(check int) "snapshot unaffected" 0 s.Perf.cycles

let test_reset () =
  let p = Perf.create () in
  p.Perf.cycles <- 9;
  p.Perf.htab_hits <- 3;
  p.Perf.prezeroed_hits <- 1;
  Perf.reset p;
  Alcotest.(check int) "cycles" 0 p.Perf.cycles;
  Alcotest.(check int) "htab hits" 0 p.Perf.htab_hits;
  Alcotest.(check int) "prezeroed" 0 p.Perf.prezeroed_hits

let test_busy_cycles () =
  let p = Perf.create () in
  p.Perf.cycles <- 100;
  p.Perf.idle_cycles <- 30;
  Alcotest.(check int) "busy" 70 (Perf.busy_cycles p)

(* --- exhaustiveness guard ---------------------------------------------
   Perf.t is a flat record of int counters, so its field count is visible
   to Obj; [fields] (and through it snapshot/diff/reset and the timeline
   exporter) must cover every one.  Adding a counter without extending
   [fields] fails here. *)

let n_counters = Obj.size (Obj.repr (Perf.create ()))

(* Give every field a distinct nonzero value, bypassing the accessors. *)
let fill_distinct p =
  let r = Obj.repr p in
  for i = 0 to n_counters - 1 do
    Obj.set_field r i (Obj.repr (i + 1))
  done

let test_fields_exhaustive () =
  let p = Perf.create () in
  Alcotest.(check int)
    "fields lists every counter" n_counters
    (List.length (Perf.fields p));
  let names = List.map fst (Perf.fields p) in
  Alcotest.(check int)
    "field names unique" n_counters
    (List.length (List.sort_uniq compare names))

let test_fields_read_all () =
  let p = Perf.create () in
  fill_distinct p;
  let values = List.map snd (Perf.fields p) in
  Alcotest.(check int)
    "fields values all distinct (each reads its own counter)" n_counters
    (List.length (List.sort_uniq compare values));
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " read back nonzero") true (v > 0))
    (Perf.fields p)

let test_snapshot_covers_all () =
  let p = Perf.create () in
  fill_distinct p;
  let s = Perf.snapshot p in
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) ("snapshot " ^ name) a b)
    (Perf.fields p) (Perf.fields s)

let test_diff_self_zero () =
  let p = Perf.create () in
  fill_distinct p;
  let d = Perf.diff ~after:p ~before:p in
  List.iter
    (fun (name, v) -> Alcotest.(check int) ("diff self " ^ name) 0 v)
    (Perf.fields d)

let test_reset_covers_all () =
  let p = Perf.create () in
  fill_distinct p;
  Perf.reset p;
  List.iter
    (fun (name, v) -> Alcotest.(check int) ("reset " ^ name) 0 v)
    (Perf.fields p)

let test_pp_no_crash () =
  let p = Perf.create () in
  p.Perf.cycles <- 123;
  let s = Format.asprintf "%a" Perf.pp p in
  Alcotest.(check bool) "mentions cycles" true
    (String.length s > 0)

(* [pp] prints the nonzero counters and nothing else: one
   "  name value" line each, in [fields] order, under the header. *)
let test_pp_nonzero_in_order () =
  let p = Perf.create () in
  p.Perf.cycles <- 123;
  p.Perf.htab_evicts_zombie <- 4;
  p.Perf.dtlb_misses <- 7;
  p.Perf.vsid_wraps <- 1;
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Perf.pp p)
    |> List.filter (fun l -> l <> "")
  in
  let expected =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None else Some (Printf.sprintf "  %-22s %d" name v))
      (Perf.fields p)
  in
  Alcotest.(check (list string))
    "header, then one line per nonzero counter" ("perf counters:" :: expected)
    lines;
  Alcotest.(check int) "four counters printed" 4 (List.length expected)

(* A live record serves as [after] as well as its snapshot does. *)
let test_diff_live_after () =
  let p = Perf.create () in
  fill_distinct p;
  let before = Perf.snapshot p in
  p.Perf.cycles <- p.Perf.cycles + 50;
  p.Perf.vsid_wraps <- p.Perf.vsid_wraps + 2;
  Alcotest.(check (list (pair string int)))
    "diff of the live record = diff of its snapshot"
    (Perf.fields (Perf.diff ~after:(Perf.snapshot p) ~before))
    (Perf.fields (Perf.diff ~after:p ~before))

let suite =
  [ Alcotest.test_case "create zeroed" `Quick test_create_zero;
    Alcotest.test_case "snapshot/diff" `Quick test_snapshot_diff;
    Alcotest.test_case "snapshot is a copy" `Quick test_snapshot_is_copy;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "busy cycles" `Quick test_busy_cycles;
    Alcotest.test_case "fields exhaustive" `Quick test_fields_exhaustive;
    Alcotest.test_case "fields read every counter" `Quick test_fields_read_all;
    Alcotest.test_case "snapshot covers every counter" `Quick
      test_snapshot_covers_all;
    Alcotest.test_case "diff with self is all zeros" `Quick
      test_diff_self_zero;
    Alcotest.test_case "reset covers every counter" `Quick
      test_reset_covers_all;
    Alcotest.test_case "pretty printer" `Quick test_pp_no_crash;
    Alcotest.test_case "pp prints exactly the nonzero counters" `Quick
      test_pp_nonzero_in_order;
    Alcotest.test_case "diff of a live record = diff of its snapshot" `Quick
      test_diff_live_after ]
