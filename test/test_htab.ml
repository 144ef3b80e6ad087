(* Hashed page table: search order, insert/evict policy, zombie reclaim. *)
open Ppc

let mk ?(n_ptes = 1024) () = Htab.create ~n_ptes ()
let rng () = Rng.create ~seed:99
let no_ref (_ : Addr.pa) = ()
let no_run (_ : Addr.pa) (_ : int) = ()

let insert ?(rpn = 7) h ~vsid ~page_index =
  Htab.insert h ~rng:(rng ()) ~vsid ~page_index ~rpn ~wimg:Pte.wimg_default
    ~protection:Pte.Read_write ~on_run:no_run

(* [insert]'s answer: the displaced entry's word 0, or -1 *)
let displaced_nothing victim = victim < 0

(* Valid entries whose decoded view satisfies [f]. *)
let count_decoded h ~f =
  let n = ref 0 in
  for i = 0 to Htab.capacity h - 1 do
    let pte = Htab.decode h i in
    if pte.Pte.valid && f pte then incr n
  done;
  !n

let test_insert_search () =
  let h = mk () in
  if not (displaced_nothing (insert h ~vsid:0x42 ~page_index:0x10)) then
    Alcotest.fail "table was empty";
  match Htab.search h ~vsid:0x42 ~page_index:0x10 ~on_ref:no_ref with
  | Some pte -> Alcotest.(check int) "rpn" 7 pte.Pte.rpn
  | None -> Alcotest.fail "expected hit"

let test_search_miss () =
  let h = mk () in
  Alcotest.(check bool) "empty table misses" true
    (Htab.search h ~vsid:1 ~page_index:2 ~on_ref:no_ref = None)

let test_search_ref_counting () =
  let h = mk () in
  ignore (insert h ~vsid:0x42 ~page_index:0x10 : int);
  (* a miss examines both PTEGs: 16 references *)
  let refs = ref 0 in
  ignore
    (Htab.search h ~vsid:0x99 ~page_index:0x11 ~on_ref:(fun _ -> incr refs)
      : Pte.t option);
  Alcotest.(check int) "full search is 16 references" 16 !refs

let test_update_in_place () =
  let h = mk () in
  ignore (insert h ~rpn:1 ~vsid:3 ~page_index:4 : int);
  ignore (insert h ~rpn:2 ~vsid:3 ~page_index:4 : int);
  Alcotest.(check int) "single entry" 1 (Htab.occupancy h);
  match Htab.search h ~vsid:3 ~page_index:4 ~on_ref:no_ref with
  | Some pte -> Alcotest.(check int) "updated rpn" 2 pte.Pte.rpn
  | None -> Alcotest.fail "expected hit"

(* vsids that all collide into the same primary PTEG for page_index 0 *)
let colliding_vsids h n =
  let target = Pte.hash_primary ~n_ptegs:(Htab.n_ptegs h) ~vsid:0 ~page_index:0 in
  let rec collect acc vsid =
    if List.length acc >= n then List.rev acc
    else
      let p =
        Pte.hash_primary ~n_ptegs:(Htab.n_ptegs h) ~vsid ~page_index:0
      in
      collect (if p = target then vsid :: acc else acc) (vsid + 1)
  in
  collect [] 0

let test_overflow_to_secondary () =
  let h = mk () in
  (* 9 entries hashing to one PTEG: the 9th goes to the secondary group *)
  let vsids = colliding_vsids h 9 in
  List.iter
    (fun vsid ->
      if not (displaced_nothing (insert h ~vsid ~page_index:0)) then
        Alcotest.fail "should not evict yet")
    vsids;
  Alcotest.(check int) "all placed" 9 (Htab.occupancy h);
  (* all 9 are findable *)
  List.iter
    (fun vsid ->
      Alcotest.(check bool) "findable" true
        (Htab.search h ~vsid ~page_index:0 ~on_ref:no_ref <> None))
    vsids;
  (* the 9th entry has the H (secondary) bit set *)
  let ninth = List.nth vsids 8 in
  match Htab.search h ~vsid:ninth ~page_index:0 ~on_ref:no_ref with
  | Some pte -> Alcotest.(check bool) "secondary bit" true pte.Pte.secondary
  | None -> Alcotest.fail "expected hit"

let test_eviction_when_both_full () =
  let h = mk () in
  (* fill both PTEGs (16 slots) with colliding tags, the 17th evicts *)
  let vsids = colliding_vsids h 17 in
  let outcomes = List.map (fun vsid -> insert h ~vsid ~page_index:0) vsids in
  let evictions =
    List.filter (fun victim -> not (displaced_nothing victim)) outcomes
  in
  Alcotest.(check int) "exactly one eviction" 1 (List.length evictions);
  Alcotest.(check int) "occupancy capped at 16" 16 (Htab.occupancy h)

let test_invalidate_page () =
  let h = mk () in
  ignore (insert h ~vsid:5 ~page_index:6 : int);
  Alcotest.(check bool) "invalidated" true
    (Htab.invalidate_page h ~vsid:5 ~page_index:6 ~on_run:no_run);
  Alcotest.(check bool) "gone" true
    (Htab.search h ~vsid:5 ~page_index:6 ~on_ref:no_ref = None);
  Alcotest.(check bool) "second invalidate is false" false
    (Htab.invalidate_page h ~vsid:5 ~page_index:6 ~on_run:no_run)

let test_reclaim_zombies () =
  let h = mk () in
  (* fixed VSID per generation: entries scatter over distinct PTEGs *)
  for i = 0 to 9 do
    ignore (insert h ~vsid:0x101 ~page_index:i : int)
  done;
  for i = 0 to 9 do
    ignore (insert h ~vsid:0x200 ~page_index:i : int)
  done;
  let is_zombie vsid = vsid < 0x200 in
  let reclaimed =
    Htab.reclaim_zombies h ~is_zombie ~max_ptes:(Htab.capacity h)
      ~per_slot:false ~on_run:no_run
  in
  Alcotest.(check int) "reclaimed the zombie generation" 10 reclaimed;
  Alcotest.(check int) "live generation survives" 10 (Htab.occupancy h);
  Alcotest.(check int) "survivors are live" 10
    (Htab.count_valid h ~f:(fun vsid -> vsid >= 0x200))

let test_reclaim_cursor_resumes () =
  let h = mk () in
  for i = 0 to 9 do
    ignore (insert h ~vsid:0x100 ~page_index:i : int)
  done;
  let is_zombie _ = true in
  (* two half-table scans must cover the whole table *)
  let half = Htab.capacity h / 2 in
  let scan () =
    Htab.reclaim_zombies h ~is_zombie ~max_ptes:half ~per_slot:false
      ~on_run:no_run
  in
  let r1 = scan () in
  let r2 = scan () in
  Alcotest.(check int) "everything reclaimed across slices" 10 (r1 + r2);
  Alcotest.(check int) "empty" 0 (Htab.occupancy h)

(* The reclaim scan reports a run before it clears any of the run's
   slots, and only after it has finished with every slot before the
   run; with [per_slot] each run is one slot, so each read falls
   between the previous slot's clear and its own — the order a sampling
   recorder's htab gauge must see. *)
let test_reclaim_reports_before_clearing () =
  List.iter
    (fun per_slot ->
      let h = mk ~n_ptes:64 () in
      for page_index = 0 to 40 do
        ignore (insert h ~vsid:0x100 ~page_index : int)
      done;
      let valid j = (Htab.decode h j).Pte.valid in
      let before = Array.init (Htab.capacity h) valid in
      let ordered = ref true and lengths = ref [] in
      let on_run pa n =
        let first = (pa - Htab.base_pa h) / 8 in
        for j = first to first + n - 1 do
          if valid j <> before.(j) then ordered := false
        done;
        if first > 0 && valid (first - 1) then ordered := false;
        lengths := n :: !lengths
      in
      let reclaimed =
        Htab.reclaim_zombies h ~is_zombie:(fun _ -> true)
          ~max_ptes:(Htab.capacity h) ~per_slot ~on_run
      in
      Alcotest.(check int) "every entry reclaimed" 41 reclaimed;
      Alcotest.(check bool) "reported before cleared" true !ordered;
      Alcotest.(check (list int))
        (if per_slot then "one slot at a time" else "whole lines")
        (List.init (if per_slot then 64 else 16) (fun _ ->
             if per_slot then 1 else 4))
        !lengths)
    [ false; true ]

let test_histogram () =
  let h = mk () in
  let hist0 = Htab.histogram h in
  Alcotest.(check int) "all PTEGs empty" (Htab.n_ptegs h) hist0.(0);
  ignore (insert h ~vsid:1 ~page_index:1 : int);
  let hist1 = Htab.histogram h in
  Alcotest.(check int) "one PTEG with one entry" 1 hist1.(1);
  Alcotest.(check int) "rest empty" (Htab.n_ptegs h - 1) hist1.(0)

let test_clear () =
  let h = mk () in
  for i = 0 to 20 do
    ignore (insert h ~vsid:i ~page_index:i : int)
  done;
  Htab.clear h;
  Alcotest.(check int) "cleared" 0 (Htab.occupancy h)

let test_pte_pa_layout () =
  let h = Htab.create ~base_pa:0x300000 ~n_ptes:1024 () in
  Alcotest.(check int) "first slot" 0x300000 (Htab.pte_pa h ~pteg:0 ~slot:0);
  Alcotest.(check int) "8 bytes per pte" 0x300008
    (Htab.pte_pa h ~pteg:0 ~slot:1);
  Alcotest.(check int) "64 bytes per PTEG" 0x300040
    (Htab.pte_pa h ~pteg:1 ~slot:0)

(* A PTEG is exactly two line runs only on a 64-byte boundary. *)
let test_base_must_be_pteg_aligned () =
  List.iter
    (fun base_pa ->
      Alcotest.(check int) "aligned base accepted" base_pa
        (Htab.base_pa (Htab.create ~base_pa ~n_ptes:64 ())))
    [ 0x100000; 0x300000; 0x40 ];
  List.iter
    (fun base_pa ->
      Alcotest.check_raises
        (Printf.sprintf "base %#x rejected" base_pa)
        (Invalid_argument
           "Htab.create: base_pa must be PTEG-aligned (64 bytes)")
        (fun () -> ignore (Htab.create ~base_pa ~n_ptes:64 () : Htab.t)))
    [ 0x100020; 0x100008; 0x300001 ]

(* The runs [Htab] defines for a search: a hit in primary slot [k] is
   one run of [k + 1] when it stays in the first line, two when it does
   not; a miss reads both PTEGs whole, four runs of four. *)
let test_search_line_runs () =
  let h = Htab.create ~base_pa:0x300000 ~n_ptes:1024 () in
  let runs_of vsid =
    let i = Htab.find_slot h ~vsid ~page_index:0 in
    let len = Htab.probe_len h ~vsid ~page_index:0 i in
    List.init (Htab.runs ~len) (fun k ->
        (Htab.run_pa h ~vsid ~page_index:0 k, Htab.run_slots ~len k))
  in
  let vsids = colliding_vsids h 6 in
  List.iter (fun vsid -> ignore (insert h ~vsid ~page_index:0 : int)) vsids;
  let pteg =
    Pte.hash_primary ~n_ptegs:(Htab.n_ptegs h) ~vsid:(List.hd vsids)
      ~page_index:0
  in
  let pa0 = Htab.pte_pa h ~pteg ~slot:0 in
  let show = List.map (fun (pa, n) -> Printf.sprintf "%#x:%d" pa n) in
  Alcotest.(check (list string))
    "slot 2: one run of 3"
    (show [ (pa0, 3) ])
    (show (runs_of (List.nth vsids 2)));
  Alcotest.(check (list string))
    "slot 5: a whole line, then 2"
    (show [ (pa0, 4); (pa0 + 32, 2) ])
    (show (runs_of (List.nth vsids 5)));
  let miss = runs_of 0x7FFFF in
  Alcotest.(check (list int)) "a miss: four runs of four" [ 4; 4; 4; 4 ]
    (List.map snd miss);
  List.iter
    (fun (pa, _) -> Alcotest.(check int) "runs start on a line" 0 (pa land 31))
    miss

let prop_insert_then_found =
  QCheck.Test.make ~name:"inserted entry is searchable (no pressure)"
    ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFF))
    (fun (vsid, page_index) ->
      let h = mk () in
      ignore (insert h ~vsid ~page_index : int);
      Htab.search h ~vsid ~page_index ~on_ref:no_ref <> None)

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"htab occupancy never exceeds capacity" ~count:20
    QCheck.(
      list_of_size (Gen.return 400)
        (pair (int_bound 0xFFF) (int_bound 0xFF)))
    (fun tags ->
      let h = Htab.create ~n_ptes:64 () in
      List.iter
        (fun (vsid, page_index) ->
          ignore (insert h ~vsid ~page_index : int))
        tags;
      Htab.occupancy h <= Htab.capacity h)

let prop_reclaim_never_kills_live =
  QCheck.Test.make ~name:"full reclaim removes all zombies, only zombies"
    ~count:50
    QCheck.(list_of_size (Gen.return 50) (int_bound 0xFFF))
    (fun vsids ->
      let h = mk () in
      List.iteri
        (fun i vsid ->
          ignore (insert h ~vsid ~page_index:i : int))
        vsids;
      let is_zombie vsid = vsid land 1 = 0 in
      let live_before =
        Htab.count_valid h ~f:(fun vsid -> not (is_zombie vsid))
      in
      ignore
        (Htab.reclaim_zombies h ~is_zombie ~max_ptes:(Htab.capacity h)
           ~per_slot:false ~on_run:no_run
          : int);
      Htab.count_valid h ~f:is_zombie = 0
      && Htab.occupancy h = live_before)

let prop_histogram_sums =
  QCheck.Test.make ~name:"histogram partitions the PTEGs" ~count:50
    QCheck.(
      list_of_size (Gen.return 100)
        (pair (int_bound 0xFFFF) (int_bound 0xFF)))
    (fun tags ->
      let h = mk () in
      List.iter
        (fun (vsid, page_index) ->
          ignore (insert h ~vsid ~page_index : int))
        tags;
      let hist = Htab.histogram h in
      let total_ptegs = Array.fold_left ( + ) 0 hist in
      let weighted = ref 0 in
      Array.iteri (fun k n -> weighted := !weighted + (k * n)) hist;
      total_ptegs = Htab.n_ptegs h && !weighted = Htab.occupancy h)

let prop_search_hit_cost_bounded =
  QCheck.Test.make ~name:"a hit is found within 16 references" ~count:200
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFF))
    (fun (vsid, page_index) ->
      let h = mk () in
      ignore (insert h ~vsid ~page_index : int);
      let refs = ref 0 in
      ignore
        (Htab.search h ~vsid ~page_index ~on_ref:(fun _ -> incr refs)
          : Pte.t option);
      !refs >= 1 && !refs <= 16)

let test_insert_prefers_primary () =
  let h = mk () in
  if not (displaced_nothing (insert h ~vsid:0x33 ~page_index:0x44)) then
    Alcotest.fail "empty table";
  match Htab.search h ~vsid:0x33 ~page_index:0x44 ~on_ref:no_ref with
  | Some pte ->
      Alcotest.(check bool) "primary group (H clear)" false pte.Pte.secondary
  | None -> Alcotest.fail "expected hit"

let test_primary_hit_cheaper_than_secondary () =
  let h = mk () in
  let vsids = colliding_vsids h 9 in
  List.iter
    (fun vsid -> ignore (insert h ~vsid ~page_index:0 : int))
    vsids;
  let refs_for vsid =
    let refs = ref 0 in
    ignore
      (Htab.search h ~vsid ~page_index:0 ~on_ref:(fun _ -> incr refs)
        : Pte.t option);
    !refs
  in
  (* the first insert sits in primary slot 0; the ninth overflowed *)
  Alcotest.(check int) "first entry: one reference" 1
    (refs_for (List.nth vsids 0));
  Alcotest.(check bool) "overflow entry costs > 8 references" true
    (refs_for (List.nth vsids 8) > 8)

let second_chance h ~vsid =
  Htab.insert ~policy:Htab.Second_chance h ~rng:(rng ()) ~vsid ~page_index:0
    ~rpn:9 ~wimg:Pte.wimg_default ~protection:Pte.Read_write ~on_run:no_run

let test_second_chance_prefers_unreferenced () =
  let h = mk () in
  let vsids = colliding_vsids h 18 in
  let first16 = List.filteri (fun i _ -> i < 16) vsids in
  List.iter
    (fun vsid -> ignore (insert h ~vsid ~page_index:0 : int))
    first16;
  (* every entry is referenced, so this insert strips all sixteen R bits
     and evicts one; only the new entry has R set *)
  let stripped = second_chance h ~vsid:(List.nth vsids 16) in
  if displaced_nothing stripped then Alcotest.fail "expected eviction";
  let survivors =
    List.filter (fun v -> v <> Htab.vsid_of_tag stripped) first16
  in
  (* a same-tag re-insert sets R again: leave one survivor cold *)
  let cold = List.nth survivors 5 in
  List.iter
    (fun vsid ->
      if vsid <> cold then ignore (insert h ~vsid ~page_index:0 : int))
    survivors;
  let victim = second_chance h ~vsid:(List.nth vsids 17) in
  if displaced_nothing victim then Alcotest.fail "expected eviction";
  Alcotest.(check int) "the unreferenced entry was chosen" cold
    (Htab.vsid_of_tag victim);
  Alcotest.(check bool) "victim gone" true
    (Htab.search h ~vsid:cold ~page_index:0 ~on_ref:no_ref = None)

let test_second_chance_strips_r_bits () =
  let h = mk () in
  let vsids = colliding_vsids h 17 in
  let first16 = List.filteri (fun i _ -> i < 16) vsids in
  List.iter
    (fun vsid -> ignore (insert h ~vsid ~page_index:0 : int))
    first16;
  (* every entry is referenced (insert sets R): the fallback must strip
     the R bits and still evict exactly one entry *)
  if displaced_nothing (second_chance h ~vsid:(List.nth vsids 16)) then
    Alcotest.fail "expected eviction";
  Alcotest.(check int) "occupancy still 16" 16 (Htab.occupancy h);
  (* all survivors but the fresh insert now have R clear *)
  Alcotest.(check int) "one referenced entry (the new one)" 1
    (count_decoded h ~f:(fun pte -> pte.Pte.referenced))

let test_zombie_aware_evicts_zombie () =
  let h = mk () in
  let vsids = colliding_vsids h 17 in
  let first16 = List.filteri (fun i _ -> i < 16) vsids in
  List.iter
    (fun vsid -> ignore (insert h ~vsid ~page_index:0 : int))
    first16;
  let the_zombie = List.nth first16 9 in
  let is_zombie vsid = vsid = the_zombie in
  let victim =
    Htab.insert ~policy:(Htab.Prefer_zombie is_zombie) h ~rng:(rng ())
      ~vsid:(List.nth vsids 16) ~page_index:0 ~rpn:9 ~wimg:Pte.wimg_default
      ~protection:Pte.Read_write ~on_run:no_run
  in
  if displaced_nothing victim then Alcotest.fail "expected eviction";
  Alcotest.(check int) "the zombie was chosen" the_zombie
    (Htab.vsid_of_tag victim);
  Alcotest.(check bool) "zombie gone" true
    (Htab.search h ~vsid:the_zombie ~page_index:0 ~on_ref:no_ref = None);
  (* with no zombies at all it degrades to an arbitrary (but live) evict *)
  if
    displaced_nothing
      (Htab.insert ~policy:(Htab.Prefer_zombie (fun _ -> false)) h
         ~rng:(rng ()) ~vsid:0x7FFFF ~page_index:0 ~rpn:1
         ~wimg:Pte.wimg_default ~protection:Pte.Read_write ~on_run:no_run)
  then Alcotest.fail "expected eviction"

let suite =
  [ Alcotest.test_case "insert/search" `Quick test_insert_search;
    Alcotest.test_case "search miss" `Quick test_search_miss;
    Alcotest.test_case "miss costs 16 references" `Quick
      test_search_ref_counting;
    Alcotest.test_case "update in place" `Quick test_update_in_place;
    Alcotest.test_case "overflow to secondary PTEG" `Quick
      test_overflow_to_secondary;
    Alcotest.test_case "eviction when both PTEGs full" `Quick
      test_eviction_when_both_full;
    Alcotest.test_case "invalidate page" `Quick test_invalidate_page;
    Alcotest.test_case "zombie reclaim" `Quick test_reclaim_zombies;
    Alcotest.test_case "reclaim cursor resumes" `Quick
      test_reclaim_cursor_resumes;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "pte physical layout" `Quick test_pte_pa_layout;
    QCheck_alcotest.to_alcotest prop_insert_then_found;
    QCheck_alcotest.to_alcotest prop_occupancy_bounded;
    Alcotest.test_case "insert prefers primary" `Quick
      test_insert_prefers_primary;
    Alcotest.test_case "primary hit cheaper than overflow" `Quick
      test_primary_hit_cheaper_than_secondary;
    QCheck_alcotest.to_alcotest prop_reclaim_never_kills_live;
    QCheck_alcotest.to_alcotest prop_histogram_sums;
    Alcotest.test_case "second chance prefers unreferenced" `Quick
      test_second_chance_prefers_unreferenced;
    Alcotest.test_case "second chance strips R bits" `Quick
      test_second_chance_strips_r_bits;
    Alcotest.test_case "zombie-aware eviction" `Quick
      test_zombie_aware_evicts_zombie;
    QCheck_alcotest.to_alcotest prop_search_hit_cost_bounded;
    Alcotest.test_case "reclaim reports before clearing" `Quick
      test_reclaim_reports_before_clearing;
    Alcotest.test_case "base must be PTEG-aligned" `Quick
      test_base_must_be_pteg_aligned;
    Alcotest.test_case "search reports line runs" `Quick
      test_search_line_runs ]
