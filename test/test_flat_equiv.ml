(* Equivalence of the flat hot-path layouts with the original
   record/option semantics: the flat TLB must pick the same LRU victims
   as the old [entry option array] implementation, the htab's two-word
   entries must behave exactly like the old boxed-record table and its
   tag probe must match exactly [Pte.matches], the Linux page tables'
   packed words must behave exactly like the old boxed entries, and the
   unrolled cache scans must agree with a straightforward reference
   model. *)
open Ppc
module Physmem = Kernel_sim.Physmem
module Pagetable = Kernel_sim.Pagetable

(* --- reference model of the pre-flattening TLB ---------------------- *)

(* The old implementation verbatim in miniature: one [entry option]
   slot per way plus a stamp, victim = same-VPN slot, else first
   invalid way, else strict-LRU ([<], first minimal index wins).  Under
   FIFO a hit leaves the stamp alone, so the same pick evicts the oldest
   insert. *)
module Ref_tlb = struct
  type t = {
    sets : int;
    ways : int;
    lru : bool;
    slots : Tlb.entry option array;
    stamps : int array;
    mutable tick : int;
  }

  let create ~replacement ~sets ~ways =
    { sets;
      ways;
      lru = replacement = Tlb.Lru;
      slots = Array.make (sets * ways) None;
      stamps = Array.make (sets * ways) 0;
      tick = 0 }

  let set_of t vpn = vpn land (t.sets - 1)

  let lookup t vpn =
    let base = set_of t vpn * t.ways in
    let found = ref None in
    for w = 0 to t.ways - 1 do
      match t.slots.(base + w) with
      | Some e when e.Tlb.vpn = vpn && !found = None ->
          if t.lru then begin
            t.tick <- t.tick + 1;
            t.stamps.(base + w) <- t.tick
          end;
          found := Some e
      | _ -> ()
    done;
    !found

  let insert_replacing t e =
    let base = set_of t e.Tlb.vpn * t.ways in
    let victim = ref (-1) in
    let lru = ref max_int in
    let lru_way = ref 0 in
    for w = 0 to t.ways - 1 do
      (match t.slots.(base + w) with
      | Some old when old.Tlb.vpn = e.Tlb.vpn -> victim := w
      | None when !victim < 0 -> victim := w
      | _ -> ());
      if t.stamps.(base + w) < !lru then begin
        lru := t.stamps.(base + w);
        lru_way := w
      end
    done;
    let w = if !victim >= 0 then !victim else !lru_way in
    let displaced =
      match t.slots.(base + w) with
      | Some old when old.Tlb.vpn <> e.Tlb.vpn -> Some old
      | _ -> None
    in
    t.tick <- t.tick + 1;
    t.slots.(base + w) <- Some e;
    t.stamps.(base + w) <- t.tick;
    displaced

  let invalidate_page t vpn =
    Array.iteri
      (fun i -> function
        | Some e when e.Tlb.vpn = vpn -> t.slots.(i) <- None
        | _ -> ())
      t.slots

  let occupancy t =
    Array.fold_left
      (fun n -> function Some _ -> n + 1 | None -> n)
      0 t.slots
end

type op = Insert of Tlb.entry | Lookup of int | Invalidate of int

let entry_eq a b =
  a.Tlb.vpn = b.Tlb.vpn && a.Tlb.rpn = b.Tlb.rpn
  && a.Tlb.inhibited = b.Tlb.inhibited
  && a.Tlb.writable = b.Tlb.writable

let opt_entry_eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> entry_eq a b
  | _ -> false

(* Small geometry (4 sets x 2 ways) and a VPN universe a few times the
   capacity, so the sequence forces evictions, same-set conflicts and
   same-VPN updates. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [ ( 5,
          map2
            (fun vpn rpn ->
              Insert
                { Tlb.vpn;
                  rpn;
                  inhibited = rpn land 7 = 0;
                  writable = rpn land 3 = 0 })
            (int_bound 31) (int_bound 255) );
        (3, map (fun vpn -> Lookup vpn) (int_bound 31));
        (1, map (fun vpn -> Invalidate vpn) (int_bound 31)) ])

let op_print = function
  | Insert e -> Printf.sprintf "insert vpn=%d rpn=%d" e.Tlb.vpn e.Tlb.rpn
  | Lookup v -> Printf.sprintf "lookup %d" v
  | Invalidate v -> Printf.sprintf "invalidate %d" v

(* Both TLB properties run under LRU and under FIFO: the 2-way victim
   pick serves both orders from the same stamps. *)
let replacement_suffix = function
  | Tlb.Lru -> ""
  | r -> Printf.sprintf " (%s)" (Tlb.replacement_name r)

let prop_tlb_matches_reference replacement =
  QCheck.Test.make
    ~name:
      ("flat TLB == pre-flattening reference"
      ^ replacement_suffix replacement)
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 120) op_gen))
    (fun ops ->
      let flat = Tlb.create ~replacement ~sets:4 ~ways:2 () in
      let reference = Ref_tlb.create ~replacement ~sets:4 ~ways:2 in
      List.for_all
        (fun op ->
          match op with
          | Insert e ->
              let d_flat = Tlb.insert_replacing flat e in
              let d_ref = Ref_tlb.insert_replacing reference e in
              opt_entry_eq d_flat d_ref
          | Lookup vpn ->
              opt_entry_eq (Tlb.lookup flat vpn) (Ref_tlb.lookup reference vpn)
          | Invalidate vpn ->
              Tlb.invalidate_page flat vpn;
              Ref_tlb.invalidate_page reference vpn;
              Tlb.occupancy flat = Ref_tlb.occupancy reference)
        ops)

(* insert_flat is the allocation-free form of insert_replacing: same
   victim, same displaced VPN (-1 standing for None / same-VPN update). *)
let prop_insert_flat_matches_insert_replacing replacement =
  QCheck.Test.make
    ~name:("insert_flat == insert_replacing" ^ replacement_suffix replacement)
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 120) op_gen))
    (fun ops ->
      let a = Tlb.create ~replacement ~sets:4 ~ways:2 () in
      let b = Tlb.create ~replacement ~sets:4 ~ways:2 () in
      List.for_all
        (fun op ->
          match op with
          | Insert e ->
              let d_a = Tlb.insert_replacing a e in
              let d_b =
                Tlb.insert_flat b ~vpn:e.Tlb.vpn ~rpn:e.Tlb.rpn
                  ~inhibited:e.Tlb.inhibited ~writable:e.Tlb.writable
              in
              (match (d_a, d_b) with
              | None, -1 -> true
              | Some old, v -> old.Tlb.vpn = v
              | None, _ -> false)
          | Lookup vpn -> opt_entry_eq (Tlb.lookup a vpn) (Tlb.lookup b vpn)
          | Invalidate vpn ->
              Tlb.invalidate_page a vpn;
              Tlb.invalidate_page b vpn;
              true)
        ops)

(* The slot accessors must expose exactly what the entry wrappers see. *)
let test_slot_accessors () =
  let t = Tlb.create ~sets:4 ~ways:2 () in
  ignore (Tlb.insert_flat t ~vpn:9 ~rpn:77 ~inhibited:true ~writable:false : int);
  let i = Tlb.peek_slot t 9 in
  Alcotest.(check bool) "hit" true (i >= 0);
  Alcotest.(check int) "vpn" 9 (Tlb.slot_vpn t i);
  Alcotest.(check int) "rpn" 77 (Tlb.slot_rpn t i);
  Alcotest.(check bool) "inhibited" true (Tlb.slot_inhibited t i);
  Alcotest.(check bool) "writable" false (Tlb.slot_writable t i);
  match Tlb.peek t 9 with
  | Some e ->
      Alcotest.(check bool) "wrapper agrees" true
        (entry_eq e
           { Tlb.vpn = 9; rpn = 77; inhibited = true; writable = false })
  | None -> Alcotest.fail "peek lost the entry"

(* --- htab tag probe vs Pte.matches ---------------------------------- *)

let no_ref (_ : Addr.pa) = ()
let no_run (_ : Addr.pa) (_ : int) = ()

(* A search: [Htab.find_slot]'s answer, with the line runs [Htab]
   defines for where it stopped reported through [on_run]. *)
let search_runs h ~vsid ~page_index ~on_run =
  let i = Htab.find_slot h ~vsid ~page_index in
  let len = Htab.probe_len h ~vsid ~page_index i in
  for k = 0 to Htab.runs ~len - 1 do
    on_run (Htab.run_pa h ~vsid ~page_index k) (Htab.run_slots ~len k)
  done;
  i

(* The tag probe must reproduce [Pte.matches] exactly, including its
   behaviour on over-masked search keys: [write_entry] stores masked
   fields, so a VSID above 24 bits or a page index above 16 bits can
   never match a stored entry. *)
let test_htab_tag_exactness () =
  let h = Htab.create ~n_ptes:64 () in
  let rng = Rng.create ~seed:7 in
  let vsid = 0x123456 and page_index = 0xABC in
  ignore
    (Htab.insert h ~rng ~vsid ~page_index ~rpn:0x42 ~wimg:Pte.wimg_default ~protection:Pte.Read_write
       ~on_run:no_run
      : int);
  let found ~vsid ~page_index =
    Htab.search h ~vsid ~page_index ~on_ref:no_ref <> None
  in
  Alcotest.(check bool) "exact key hits" true (found ~vsid ~page_index);
  Alcotest.(check bool) "over-masked vsid misses" false
    (found ~vsid:(vsid lor 0x1000000) ~page_index);
  Alcotest.(check bool) "over-masked page index misses" false
    (found ~vsid ~page_index:(page_index lor 0x10000));
  Alcotest.(check bool) "wrong vsid misses" false
    (found ~vsid:(vsid lxor 1) ~page_index)

(* Random inserts: the probe-by-tag search must agree with a linear
   [Pte.matches] scan over the whole table, and the probe length
   [search_counted] derives from the slot must equal the references the
   search actually made — for hits and for a never-inserted key. *)
let prop_htab_search_matches_linear_scan =
  QCheck.Test.make ~name:"htab tag search == Pte.matches scan" ~count:100
    QCheck.(
      make
        ~print:(fun l ->
          String.concat ";"
            (List.map (fun (v, p) -> Printf.sprintf "(%d,%d)" v p) l))
        (Gen.list_size (Gen.int_range 1 40)
           (Gen.pair (Gen.int_bound 0xFFFF) (Gen.int_bound 0xFF))))
    (fun keys ->
      let h = Htab.create ~n_ptes:64 () in
      let rng = Rng.create ~seed:11 in
      List.iter
        (fun (vsid, page_index) ->
          ignore
            (Htab.insert h ~rng ~vsid ~page_index ~rpn:1 ~wimg:Pte.wimg_default ~protection:Pte.Read_only
               ~on_run:no_run
              : int))
        keys;
      let probe_len_exact ~vsid ~page_index =
        let refs = ref 0 in
        let i =
          search_runs h ~vsid ~page_index ~on_run:(fun _ n ->
              refs := !refs + n)
        in
        let reported = ref 0 in
        let hit, n =
          Htab.search_counted h ~vsid ~page_index ~on_ref:(fun _ ->
              incr reported)
        in
        n = !refs && n = !reported
        && match hit with None -> i < 0 | Some pte -> Htab.decode h i = pte
      in
      List.for_all
        (fun (vsid, page_index) ->
          let by_tag = Htab.search h ~vsid ~page_index ~on_ref:no_ref in
          let by_scan = ref None in
          for i = 0 to Htab.capacity h - 1 do
            let pte = Htab.decode h i in
            if Pte.matches pte ~vsid ~page_index && !by_scan = None then
              by_scan := Some pte
          done;
          probe_len_exact ~vsid ~page_index
          && probe_len_exact ~vsid:(vsid lor 0x10000) ~page_index
          &&
          match (by_tag, !by_scan) with
          | None, None -> true
          | Some a, Some b ->
              a.Pte.vsid = b.Pte.vsid && a.Pte.page_index = b.Pte.page_index
          | _ -> false)
        keys)

(* --- two-word htab vs the boxed-record reference model ---------------- *)

(* The htab as it was before it stored Figure 1's two words: one mutable
   record per slot plus an [int] tags mirror of the valid entries'
   search tags, victims reported as a record copy. *)
module Ref_htab = struct
  type pte = {
    mutable valid : bool;
    mutable vsid : int;
    mutable page_index : int;
    mutable rpn : int;
    mutable secondary : bool;
    mutable referenced : bool;
    mutable changed : bool;
    mutable wimg : Pte.wimg;
    mutable protection : Pte.protection;
  }

  type t = {
    ptegs : int;
    base : Addr.pa;
    entries : pte array;
    tags : int array;
    mutable cursor : int;
  }

  type outcome = Filled_empty | Replaced of pte

  let slots_per_pteg = 8
  let pte_bytes = 8
  let tag_of ~vsid ~page_index = (vsid lsl 16) lor page_index

  let invalid () =
    { valid = false;
      vsid = 0;
      page_index = 0;
      rpn = 0;
      secondary = false;
      referenced = false;
      changed = false;
      wimg = Pte.wimg_default;
      protection = Pte.No_access }

  let create ~n_ptes =
    { ptegs = n_ptes / slots_per_pteg;
      base = 0x00100000;
      entries = Array.init n_ptes (fun _ -> invalid ());
      tags = Array.make n_ptes (-1);
      cursor = 0 }

  let capacity t = Array.length t.entries

  let pte_pa t ~pteg ~slot =
    t.base + (((pteg * slots_per_pteg) + slot) * pte_bytes)

  let hash1 t ~vsid ~page_index =
    Pte.hash_primary ~n_ptegs:t.ptegs ~vsid ~page_index

  let hash2 t ~primary = Pte.hash_secondary ~n_ptegs:t.ptegs ~primary

  let search_pteg_slot t ~pteg ~tag ~on_ref =
    let base = pteg * slots_per_pteg in
    let rec scan slot =
      if slot >= slots_per_pteg then -1
      else begin
        on_ref (pte_pa t ~pteg ~slot);
        if t.tags.(base + slot) = tag then base + slot else scan (slot + 1)
      end
    in
    scan 0

  let search_slot t ~vsid ~page_index ~on_ref =
    let tag = tag_of ~vsid ~page_index in
    let p = hash1 t ~vsid ~page_index in
    let i = search_pteg_slot t ~pteg:p ~tag ~on_ref in
    if i >= 0 then i
    else search_pteg_slot t ~pteg:(hash2 t ~primary:p) ~tag ~on_ref

  let probe_len t ~vsid ~page_index i =
    if i < 0 then 2 * slots_per_pteg
    else if i / slots_per_pteg = hash1 t ~vsid ~page_index then
      (i mod slots_per_pteg) + 1
    else slots_per_pteg + (i mod slots_per_pteg) + 1

  let find_free t ~pteg ~tag ~on_ref =
    let base = pteg * slots_per_pteg in
    let free = ref (-1) in
    let same = ref (-1) in
    for slot = 0 to slots_per_pteg - 1 do
      on_ref (pte_pa t ~pteg ~slot);
      let stored = t.tags.(base + slot) in
      if stored = tag then same := slot
      else if stored < 0 && !free < 0 then free := slot
    done;
    if !same >= 0 then Some !same else if !free >= 0 then Some !free else None

  let write_entry t ~pteg ~slot ~secondary ~vsid ~page_index ~rpn ~wimg
      ~protection ~changed =
    let i = (pteg * slots_per_pteg) + slot in
    let e = t.entries.(i) in
    e.valid <- true;
    e.vsid <- vsid land 0xFFFFFF;
    e.page_index <- page_index land 0xFFFF;
    e.rpn <- rpn land 0xFFFFF;
    e.secondary <- secondary;
    e.referenced <- true;
    e.changed <- changed;
    e.wimg <- wimg;
    e.protection <- protection;
    t.tags.(i) <- tag_of ~vsid:e.vsid ~page_index:e.page_index

  let pick_victim_second_chance t ~rng ~primary ~secondary ~on_ref =
    let candidate = ref None in
    let examine pteg =
      for slot = 0 to slots_per_pteg - 1 do
        on_ref (pte_pa t ~pteg ~slot);
        let pte = t.entries.((pteg * slots_per_pteg) + slot) in
        if (not pte.referenced) && !candidate = None then
          candidate := Some (pteg, slot)
      done
    in
    examine primary;
    (match !candidate with None -> examine secondary | Some _ -> ());
    match !candidate with
    | Some c -> c
    | None ->
        List.iter
          (fun pteg ->
            for slot = 0 to slots_per_pteg - 1 do
              t.entries.((pteg * slots_per_pteg) + slot).referenced <- false
            done)
          [ primary; secondary ];
        let in_secondary = Rng.bool rng in
        ( (if in_secondary then secondary else primary),
          Rng.int rng slots_per_pteg )

  let pick_victim_zombie t ~rng ~is_zombie ~primary ~secondary ~on_ref =
    let candidate = ref None in
    let examine pteg =
      for slot = 0 to slots_per_pteg - 1 do
        if !candidate = None then begin
          on_ref (pte_pa t ~pteg ~slot);
          let pte = t.entries.((pteg * slots_per_pteg) + slot) in
          if is_zombie pte.vsid then candidate := Some (pteg, slot)
        end
      done
    in
    examine primary;
    (match !candidate with None -> examine secondary | Some _ -> ());
    match !candidate with
    | Some c -> c
    | None ->
        let in_secondary = Rng.bool rng in
        ( (if in_secondary then secondary else primary),
          Rng.int rng slots_per_pteg )

  let insert ~policy ~changed t ~rng ~vsid ~page_index ~rpn ~wimg
      ~protection ~on_ref =
    let tag = tag_of ~vsid ~page_index in
    let p = hash1 t ~vsid ~page_index in
    match find_free t ~pteg:p ~tag ~on_ref with
    | Some slot ->
        write_entry t ~pteg:p ~slot ~secondary:false ~vsid ~page_index ~rpn
          ~wimg ~protection ~changed;
        Filled_empty
    | None -> begin
        let s = hash2 t ~primary:p in
        match find_free t ~pteg:s ~tag ~on_ref with
        | Some slot ->
            write_entry t ~pteg:s ~slot ~secondary:true ~vsid ~page_index
              ~rpn ~wimg ~protection ~changed;
            Filled_empty
        | None ->
            let pteg, slot =
              match policy with
              | Htab.Arbitrary ->
                  let in_secondary = Rng.bool rng in
                  ((if in_secondary then s else p), Rng.int rng slots_per_pteg)
              | Htab.Second_chance ->
                  pick_victim_second_chance t ~rng ~primary:p ~secondary:s
                    ~on_ref
              | Htab.Prefer_zombie is_zombie ->
                  pick_victim_zombie t ~rng ~is_zombie ~primary:p
                    ~secondary:s ~on_ref
            in
            let victim = t.entries.((pteg * slots_per_pteg) + slot) in
            (* a copy: [write_entry] rewrites the record below *)
            let victim_copy = { victim with valid = true } in
            on_ref (pte_pa t ~pteg ~slot);
            write_entry t ~pteg ~slot ~secondary:(pteg = s) ~vsid ~page_index
              ~rpn ~wimg ~protection ~changed;
            Replaced victim_copy
      end

  let invalidate_page t ~vsid ~page_index ~on_ref =
    let i = search_slot t ~vsid ~page_index ~on_ref in
    if i < 0 then false
    else begin
      t.entries.(i).valid <- false;
      t.tags.(i) <- -1;
      true
    end

  let reclaim_zombies t ~is_zombie ~max_ptes ~on_ref =
    let total = capacity t in
    let reclaimed = ref 0 in
    for _ = 1 to min max_ptes total do
      let i = t.cursor in
      t.cursor <- (t.cursor + 1) mod total;
      let pteg = i / slots_per_pteg and slot = i mod slots_per_pteg in
      on_ref (pte_pa t ~pteg ~slot);
      let pte = t.entries.(i) in
      if pte.valid && is_zombie pte.vsid then begin
        pte.valid <- false;
        t.tags.(i) <- -1;
        incr reclaimed
      end
    done;
    !reclaimed

  let clear t =
    Array.iter (fun pte -> pte.valid <- false) t.entries;
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    t.cursor <- 0

  (* What [Htab.decode] must answer for the same slot. *)
  let view t i =
    let e = t.entries.(i) in
    if not e.valid then Pte.invalid
    else
      { Pte.valid = true;
        vsid = e.vsid;
        page_index = e.page_index;
        rpn = e.rpn;
        secondary = e.secondary;
        referenced = e.referenced;
        changed = e.changed;
        wimg = e.wimg;
        protection = e.protection }
end

(* A key universe that crowds a few PTEG pairs at every table size: the
   primary hash depends on the VSID's low byte and the page index, and
   the low bytes 0x01 and 0xFE make each other's secondary PTEGs.  One
   key in sixteen carries a VSID bit above 24, which must never match a
   stored (masked) entry. *)
type key = { k_vsid : int; k_page : int }

type htab_op =
  | H_insert of {
      key : key;
      policy : int;  (* 0 arbitrary, 1 second chance, 2 prefer zombie *)
      zombie : int;
      changed : bool;
      rpn : int;
      wimg : int;
      pp : int;
    }
  | H_search of key
  | H_invalidate of key
  | H_reclaim of { zombie : int; max_ptes : int; per_slot : bool }
  | H_clear

(* A random zombie predicate, named by an int so a counterexample
   prints. *)
let zombie_pred z vsid = (vsid lxor z) land 3 = 0

let key_gen =
  QCheck.Gen.(
    map
      (fun (r, low, page, over) ->
        { k_vsid =
            (r lsl 8)
            lor [| 0x01; 0xFE; 0x42 |].(low)
            lor if over = 0 then 0x1000000 else 0;
          k_page = page })
      (quad (int_bound 31) (int_bound 2) (int_bound 3) (int_bound 15)))

let htab_op_gen =
  QCheck.Gen.(
    frequency
      [ ( 12,
          map
            (fun ((key, policy, zombie), (changed, rpn, wimg, pp)) ->
              H_insert { key; policy; zombie; changed; rpn; wimg; pp })
            (pair
               (triple key_gen (int_bound 2) (int_bound 3))
               (quad bool (int_bound 0x1FFFFF) (int_bound 15) (int_bound 2)))
        );
        (4, map (fun k -> H_search k) key_gen);
        (2, map (fun k -> H_invalidate k) key_gen);
        ( 1,
          map3
            (fun zombie max_ptes per_slot ->
              H_reclaim { zombie; max_ptes; per_slot })
            (int_bound 3) (int_bound 100) bool );
        (1, return H_clear) ])

let key_print k = Printf.sprintf "(%#x,%d)" k.k_vsid k.k_page

let htab_op_print = function
  | H_insert { key; policy; zombie; changed; rpn; wimg; pp } ->
      Printf.sprintf "insert%s p%d z%d %s rpn=%#x wimg=%d pp=%d" (key_print key)
        policy zombie
        (if changed then "C" else "-")
        rpn wimg pp
  | H_search k -> "search" ^ key_print k
  | H_invalidate k -> "invalidate" ^ key_print k
  | H_reclaim { zombie; max_ptes; per_slot } ->
      Printf.sprintf "reclaim z%d %d%s" zombie max_ptes
        (if per_slot then " per-slot" else "")
  | H_clear -> "clear"

let wimg_of_int b =
  { Pte.write_through = b land 8 <> 0;
    cache_inhibited = b land 4 <> 0;
    memory_coherent = b land 2 <> 0;
    guarded = b land 1 <> 0 }

let protection_of_int = function
  | 0 -> Pte.Read_write
  | 1 -> Pte.Read_only
  | _ -> Pte.No_access

(* A line run is 1 to 4 PTEs that all sit in one 32-byte line. *)
let run_in_line pa n =
  n >= 1 && n <= 4 && pa land 7 = 0
  && Addr.line_index pa = Addr.line_index (pa + (8 * (n - 1)))

(* Drive the two-word table and the boxed reference through one random
   stream.  After every operation both must have returned the same
   answer (slot and probe length, displaced VSID and page index,
   invalidate verdict, reclaim count), reported the same address
   sequence — the table's line runs expanded slot by slot, each run
   inside one line — drawn the same RNG values and hold equal decoded
   entries in every slot. *)
let prop_htab_matches_boxed_reference n_ptes ~count =
  QCheck.Test.make
    ~name:(Printf.sprintf "htab == boxed reference (%d PTEs)" n_ptes)
    ~count
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map htab_op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 150) htab_op_gen))
    (fun ops ->
      let flat = Htab.create ~n_ptes () in
      let reference = Ref_htab.create ~n_ptes in
      let rng_flat = Rng.create ~seed:n_ptes in
      let rng_ref = Rng.create ~seed:n_ptes in
      let refs_flat = ref [] and refs_ref = ref [] in
      let runs_ok = ref true in
      let on_flat pa n =
        if not (run_in_line pa n) then runs_ok := false;
        for k = 0 to n - 1 do
          refs_flat := (pa + (8 * k)) :: !refs_flat
        done
      in
      let on_ref pa = refs_ref := pa :: !refs_ref in
      let same_entries () =
        let ok = ref true in
        for i = 0 to n_ptes - 1 do
          if Htab.decode flat i <> Ref_htab.view reference i then ok := false
        done;
        !ok
      in
      List.for_all
        (fun op ->
          refs_flat := [];
          refs_ref := [];
          let same_answer =
            match op with
            | H_insert { key; policy; zombie; changed; rpn; wimg; pp } -> (
                let policy =
                  match policy with
                  | 0 -> Htab.Arbitrary
                  | 1 -> Htab.Second_chance
                  | _ -> Htab.Prefer_zombie (zombie_pred zombie)
                in
                let wimg = wimg_of_int wimg
                and protection = protection_of_int pp in
                let v =
                  Htab.insert ~policy ~changed flat ~rng:rng_flat
                    ~vsid:key.k_vsid ~page_index:key.k_page ~rpn ~wimg
                    ~protection ~on_run:on_flat
                in
                match
                  Ref_htab.insert ~policy ~changed reference ~rng:rng_ref
                    ~vsid:key.k_vsid ~page_index:key.k_page ~rpn ~wimg
                    ~protection ~on_ref
                with
                | Ref_htab.Filled_empty -> v = -1
                | Ref_htab.Replaced victim ->
                    v >= 0
                    && Htab.vsid_of_tag v = victim.Ref_htab.vsid
                    && v land 0xFFFF = victim.Ref_htab.page_index)
            | H_search key ->
                let vsid = key.k_vsid and page_index = key.k_page in
                let i = search_runs flat ~vsid ~page_index ~on_run:on_flat in
                let per_slot = ref [] in
                ignore
                  (Htab.search flat ~vsid ~page_index ~on_ref:(fun pa ->
                       per_slot := pa :: !per_slot)
                    : Pte.t option);
                let j =
                  Ref_htab.search_slot reference ~vsid ~page_index ~on_ref
                in
                i = j
                && !per_slot = !refs_flat
                && Htab.probe_len flat ~vsid ~page_index i
                   = Ref_htab.probe_len reference ~vsid ~page_index j
            | H_invalidate key ->
                Htab.invalidate_page flat ~vsid:key.k_vsid
                  ~page_index:key.k_page ~on_run:on_flat
                = Ref_htab.invalidate_page reference ~vsid:key.k_vsid
                    ~page_index:key.k_page ~on_ref
            | H_reclaim { zombie; max_ptes; per_slot } ->
                let is_zombie = zombie_pred zombie in
                Htab.reclaim_zombies flat ~is_zombie ~max_ptes ~per_slot
                  ~on_run:on_flat
                = Ref_htab.reclaim_zombies reference ~is_zombie ~max_ptes
                    ~on_ref
            | H_clear ->
                Htab.clear flat;
                Ref_htab.clear reference;
                true
          in
          same_answer && !runs_ok
          && !refs_flat = !refs_ref
          && Rng.next (Rng.copy rng_flat) = Rng.next (Rng.copy rng_ref)
          && same_entries ())
        ops)

(* The table is its words: two per slot, and a few for the record. *)
let test_htab_footprint () =
  let n_ptes = 16_384 in
  let words = Obj.reachable_words (Obj.repr (Htab.create ~n_ptes ())) in
  if words > (2 * n_ptes) + 64 then
    Alcotest.failf "%d words for %d PTEs (bound %d)" words n_ptes
      ((2 * n_ptes) + 64)

(* --- packed page tables vs the boxed reference model ------------------ *)

(* The Linux page tables as they were before they stored packed words:
   one [entry option] per PTE slot, a [walk] that returns its load
   addresses in a fresh array, and exec/exit's release pattern (collect
   every mapping, then unmap them newest first) for [unmap_all]. *)
module Ref_pagetable = struct
  exception Out_of_frames

  type entry = {
    rpn : int;
    writable : bool;
    inhibited : bool;
    shared : bool;
    cow : bool;
  }

  type pte_page = {
    frame : int;
    slots : entry option array;
  }

  type t = {
    ctx_pa : Addr.pa;
    pgd_frame : int;
    pgd : pte_page option array;
    mutable mapped : int;
  }

  let entries_per_table = 1024
  let pte_entry_bytes = 4
  let pgd_index ea = (ea lsr 22) land 0x3FF
  let pte_index ea = (ea lsr Addr.page_shift) land 0x3FF

  let alloc_frame physmem =
    match Physmem.alloc physmem with
    | Some rpn -> rpn
    | None -> raise Out_of_frames

  let create ~physmem ~ctx_pa =
    { ctx_pa;
      pgd_frame = alloc_frame physmem;
      pgd = Array.make entries_per_table None;
      mapped = 0 }

  let pgd_entry_pa t ea =
    (t.pgd_frame lsl Addr.page_shift) + (pgd_index ea * pte_entry_bytes)

  let pte_entry_pa page ea =
    (page.frame lsl Addr.page_shift) + (pte_index ea * pte_entry_bytes)

  let map t ~physmem ~ea entry =
    let i = pgd_index ea in
    let page =
      match t.pgd.(i) with
      | Some page -> page
      | None ->
          let page =
            { frame = alloc_frame physmem;
              slots = Array.make entries_per_table None }
          in
          t.pgd.(i) <- Some page;
          page
    in
    let j = pte_index ea in
    if page.slots.(j) = None then t.mapped <- t.mapped + 1;
    page.slots.(j) <- Some entry

  let unmap t ~ea =
    let i = pgd_index ea in
    match t.pgd.(i) with
    | None -> None
    | Some page -> begin
        let j = pte_index ea in
        match page.slots.(j) with
        | None -> None
        | Some _ as old ->
            page.slots.(j) <- None;
            t.mapped <- t.mapped - 1;
            old
      end

  let find t ~ea =
    match t.pgd.(pgd_index ea) with
    | None -> None
    | Some page -> page.slots.(pte_index ea)

  let walk t ~ea =
    match t.pgd.(pgd_index ea) with
    | None -> (None, [| t.ctx_pa; pgd_entry_pa t ea |])
    | Some page ->
        ( page.slots.(pte_index ea),
          [| t.ctx_pa; pgd_entry_pa t ea; pte_entry_pa page ea |] )

  let mapped_count t = t.mapped

  let iter t f =
    Array.iteri
      (fun i slot ->
        match slot with
        | None -> ()
        | Some page ->
            Array.iteri
              (fun j entry ->
                match entry with
                | None -> ()
                | Some e ->
                    let ea = (i lsl 22) lor (j lsl Addr.page_shift) in
                    f ea e)
              page.slots)
      t.pgd

  let unmap_all t f =
    let mapped = ref [] in
    iter t (fun ea entry -> mapped := (ea, entry) :: !mapped);
    List.iter
      (fun (ea, entry) ->
        ignore (unmap t ~ea : entry option);
        f entry)
      !mapped

  let destroy t ~physmem =
    Array.iteri
      (fun i slot ->
        match slot with
        | None -> ()
        | Some page ->
            Physmem.free physmem page.frame;
            t.pgd.(i) <- None)
      t.pgd;
    Physmem.free physmem t.pgd_frame;
    t.mapped <- 0
end

let word_of_entry = function
  | None -> Pagetable.unmapped
  | Some { Ref_pagetable.rpn; writable; inhibited; shared; cow } ->
      Pagetable.pte ~rpn ~writable ~inhibited ~shared ~cow

type pt_op =
  | P_map of Addr.ea * Ref_pagetable.entry
  | P_unmap of Addr.ea
  | P_find of Addr.ea
  | P_walk of Addr.ea
  | P_unmap_all
  | P_destroy

(* Five pgd slots (one more than the directory frames [pt_ram_frames]
   leaves for PTE pages, so maps run out of frames), eight PTEs in
   each, and any offset within the page. *)
let pt_ram_frames = 6

let pt_ea_gen =
  QCheck.Gen.(
    map
      (fun (i, j, off) ->
        ([| 0; 1; 0x060; 0x200; 0x3FF |].(i) lsl 22)
        lor (j lsl Addr.page_shift) lor off)
      (triple (int_bound 4) (int_bound 7) (int_bound 0xFFF)))

let pt_entry_gen =
  QCheck.Gen.(
    map
      (fun (rpn, bits) ->
        { Ref_pagetable.rpn;
          writable = bits land 1 <> 0;
          inhibited = bits land 2 <> 0;
          shared = bits land 4 <> 0;
          cow = bits land 8 <> 0 })
      (pair (int_bound 0xFFFFF) (int_bound 15)))

let pt_op_gen =
  QCheck.Gen.(
    frequency
      [ (8, map2 (fun ea e -> P_map (ea, e)) pt_ea_gen pt_entry_gen);
        (3, map (fun ea -> P_unmap ea) pt_ea_gen);
        (3, map (fun ea -> P_find ea) pt_ea_gen);
        (4, map (fun ea -> P_walk ea) pt_ea_gen);
        (1, return P_unmap_all);
        (1, return P_destroy) ])

let pt_op_print = function
  | P_map (ea, e) ->
      Printf.sprintf "map %#x rpn=%#x %s%s%s%s" ea e.Ref_pagetable.rpn
        (if e.Ref_pagetable.writable then "w" else "-")
        (if e.Ref_pagetable.inhibited then "i" else "-")
        (if e.Ref_pagetable.shared then "s" else "-")
        (if e.Ref_pagetable.cow then "c" else "-")
  | P_unmap ea -> Printf.sprintf "unmap %#x" ea
  | P_find ea -> Printf.sprintf "find %#x" ea
  | P_walk ea -> Printf.sprintf "walk %#x" ea
  | P_unmap_all -> "unmap_all"
  | P_destroy -> "destroy"

(* Drive the packed table and the boxed reference through one random
   stream, each over its own identically built [Physmem] small enough to
   run out.  [P_destroy] frees a table and builds the next one.  After
   every operation both must have given the same answer (a reference
   entry counts as the word [Pagetable.pte] makes of it; running out of
   frames is an answer), reported the same walk addresses in order,
   hold the same frames allocated, and agree on [mapped_count] and on
   [iter]'s (address, word) sequence, which is checked after every
   operation rather than as one. *)
let prop_pagetable_matches_boxed_reference =
  QCheck.Test.make ~name:"page tables == boxed reference" ~count:300
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun l -> String.concat "; " (List.map pt_op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 80) pt_op_gen))
    (fun ops ->
      let physmem () =
        Physmem.create ~ram_bytes:(pt_ram_frames * Addr.page_size)
          ~reserved_bytes:Addr.page_size
      in
      let pm = physmem () and pm_ref = physmem () in
      let ctx_pa = 0x80 in
      let pt = ref (Pagetable.create ~physmem:pm ~ctx_pa) in
      let rt = ref (Ref_pagetable.create ~physmem:pm_ref ~ctx_pa) in
      let listing () =
        let l = ref [] in
        Pagetable.iter !pt (fun ea w -> l := (ea, w) :: !l);
        !l
      in
      let ref_listing () =
        let l = ref [] in
        Ref_pagetable.iter !rt (fun ea e ->
            l := (ea, word_of_entry (Some e)) :: !l);
        !l
      in
      let same_frames () =
        let ok = ref true in
        for rpn = 0 to pt_ram_frames - 1 do
          if Physmem.is_allocated pm rpn <> Physmem.is_allocated pm_ref rpn
          then ok := false
        done;
        !ok
      in
      List.for_all
        (fun op ->
          let same_answer =
            match op with
            | P_map (ea, e) -> (
                let w = word_of_entry (Some e) in
                match
                  ( (try Ok (Pagetable.map !pt ~physmem:pm ~ea w)
                     with Pagetable.Out_of_frames -> Error ()),
                    try Ok (Ref_pagetable.map !rt ~physmem:pm_ref ~ea e)
                    with Ref_pagetable.Out_of_frames -> Error () )
                with
                | Ok (), Ok () | Error (), Error () -> true
                | _ -> false)
            | P_unmap ea ->
                Pagetable.unmap !pt ~ea
                = word_of_entry (Ref_pagetable.unmap !rt ~ea)
            | P_find ea ->
                Pagetable.find !pt ~ea
                = word_of_entry (Ref_pagetable.find !rt ~ea)
            | P_walk ea ->
                let refs = ref [] in
                let w =
                  Pagetable.walk !pt ~ea ~on_ref:(fun pa -> refs := pa :: !refs)
                in
                let e, ref_refs = Ref_pagetable.walk !rt ~ea in
                w = word_of_entry e
                && List.rev !refs = Array.to_list ref_refs
            | P_unmap_all ->
                let ws = ref [] and es = ref [] in
                Pagetable.unmap_all !pt (fun w -> ws := w :: !ws);
                Ref_pagetable.unmap_all !rt (fun e ->
                    es := word_of_entry (Some e) :: !es);
                !ws = !es
            | P_destroy ->
                Pagetable.destroy !pt ~physmem:pm;
                Ref_pagetable.destroy !rt ~physmem:pm_ref;
                pt := Pagetable.create ~physmem:pm ~ctx_pa;
                rt := Ref_pagetable.create ~physmem:pm_ref ~ctx_pa;
                Pagetable.pgd_rpn !pt = (!rt).Ref_pagetable.pgd_frame
          in
          same_answer && same_frames ()
          && Pagetable.mapped_count !pt = Ref_pagetable.mapped_count !rt
          && listing () = ref_listing ())
        ops)

(* The boot's linear map of the 604-185's 8,192 frames fills eight PTE
   pages: nine 1,024-word arrays (1,025 words with their headers), plus
   a few words of records. *)
let test_linear_map_footprint () =
  let physmem =
    Physmem.create ~ram_bytes:Machine.ppc604_185.Machine.ram_bytes
      ~reserved_bytes:Kernel_sim.Kparams.reserved_bytes
  in
  let pt = Pagetable.create ~physmem ~ctx_pa:0x80 in
  let frames = Physmem.total_frames physmem in
  for rpn = 0 to frames - 1 do
    Pagetable.map pt ~physmem
      ~ea:(Kernel_sim.Kparams.kernel_virt_of_phys (rpn lsl Addr.page_shift))
      (Pagetable.pte ~rpn ~writable:true ~inhibited:false ~shared:false
         ~cow:false)
  done;
  Alcotest.(check int) "every frame mapped" 8192 (Pagetable.mapped_count pt);
  let words = Obj.reachable_words (Obj.repr pt) in
  let bound = (9 * 1025) + 64 in
  if words > bound then
    Alcotest.failf "%d words for the linear map (bound %d)" words bound

(* A booted 604-185 kernel: the htab's 32,774 words, then the D- and
   I-caches, the TLBs and the rest.  The physical frame allocator keeps
   one byte per frame (about 1,025 words) and a stack of freed frames,
   and the kernel's linear map stores no PTE words.  It read 43,617
   words when this bound was set; the per-frame allocator arrays would
   add back 16,386 and a materialized linear map 8,200. *)
let test_booted_kernel_footprint () =
  let k =
    Kernel_sim.Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Kernel_sim.Policy.optimized ~seed:42 ()
  in
  let words = Obj.reachable_words (Obj.repr k) in
  let bound = 46_000 in
  if words > bound then
    Alcotest.failf "%d words for a booted 604-185 kernel (bound %d)" words
      bound

(* The kernel's own linear map of the 604-185's 8,192 frames: the pgd
   array (1,025 words with its header) and nine records (the table and
   its eight linear PTE pages), and no 1,024-word PTE array. *)
let test_kernel_linear_map_footprint () =
  let k =
    Kernel_sim.Kernel.boot ~machine:Machine.ppc604_185
      ~policy:Kernel_sim.Policy.optimized ~seed:42 ()
  in
  let pt = Kernel_sim.Kernel.kernel_pagetable k in
  Alcotest.(check int) "every frame mapped" 8192 (Pagetable.mapped_count pt);
  let words = Obj.reachable_words (Obj.repr pt) in
  let bound = 1025 + 64 in
  if words > bound then
    Alcotest.failf "%d words for the kernel's linear map (bound %d)" words
      bound

(* --- the linear map: computed vs materialized ------------------------- *)

module Kparams = Kernel_sim.Kparams

let kernel_word rpn =
  Pagetable.pte ~rpn ~writable:true ~inhibited:false ~shared:false ~cow:false

(* Each machine's kernel map two ways: computed, as [Kernel.boot] builds
   it (linear PTE pages), and materialized, as the boot used to build
   it (one [map] per frame, over an identically built [Physmem]), plus
   a 5 MB machine whose last PTE page is a partial one.  Both must
   allocate the same frames and give the same answers: for every RAM
   frame's kernel EA (at an offset that varies with the frame), the
   first EA past RAM, a slot past RAM in the last PTE page and two
   empty pgd slots, [walk] must return the same word and report the
   same load addresses, [find] the same word, and [iter] and
   [mapped_count] must agree.  Then a [map] and an [unmap] into linear
   pages (and a [map] past RAM in the last one) must leave the same
   answers. *)
let linear_map_machines =
  Machine.all
  @ [ { Machine.ppc604_185 with
        name = "604 185MHz, 5 MB";
        ram_bytes = 5 * 1024 * 1024 } ]

let test_linear_map_computed_vs_materialized () =
  List.iter
    (fun (machine : Machine.t) ->
      let k =
        Kernel_sim.Kernel.boot ~machine ~policy:Kernel_sim.Policy.optimized
          ~seed:42 ()
      in
      let computed = Kernel_sim.Kernel.kernel_pagetable k in
      let pm =
        Physmem.create ~ram_bytes:machine.Machine.ram_bytes
          ~reserved_bytes:Kparams.reserved_bytes
      in
      let materialized =
        Pagetable.create ~physmem:pm ~ctx_pa:(Kparams.data_pa + 0x80)
      in
      let frames = Physmem.total_frames pm in
      for rpn = 0 to frames - 1 do
        Pagetable.map materialized ~physmem:pm
          ~ea:(Kparams.kernel_virt_of_phys (rpn lsl Addr.page_shift))
          (kernel_word rpn)
      done;
      let fail what ea =
        Alcotest.failf "%s: %s differ at %#x" machine.Machine.name what ea
      in
      let same_frames () =
        for rpn = 0 to frames - 1 do
          if
            Physmem.is_allocated (Kernel_sim.Kernel.physmem k) rpn
            <> Physmem.is_allocated pm rpn
          then fail "allocated frames" (rpn lsl Addr.page_shift)
        done
      in
      let check ea =
        let walk pt =
          let refs = ref [] in
          let w =
            Pagetable.walk pt ~ea ~on_ref:(fun pa -> refs := pa :: !refs)
          in
          (w, !refs)
        in
        if walk computed <> walk materialized then fail "walks" ea;
        if Pagetable.find computed ~ea <> Pagetable.find materialized ~ea then
          fail "finds" ea
      in
      let listing pt =
        let l = ref [] in
        Pagetable.iter pt (fun ea w -> l := (ea, w) :: !l);
        !l
      in
      let kea rpn = Kparams.kernel_virt_of_phys (rpn lsl Addr.page_shift) in
      let last_page_end = (frames + 1023) / 1024 * 1024 in
      let check_all () =
        for rpn = 0 to frames - 1 do
          check (kea rpn + (rpn * 36 land 0xFFC))
        done;
        check (kea frames);
        check (kea (last_page_end - 1));
        check 0;
        check 0xF000_0000;
        if listing computed <> listing materialized then fail "listings" 0;
        if
          Pagetable.mapped_count computed <> Pagetable.mapped_count materialized
        then fail "mapped counts" 0;
        same_frames ()
      in
      check_all ();
      Alcotest.check_raises "no linear page over a mapped one"
        (Invalid_argument "Pagetable.map_linear: not an empty PTE page")
        (fun () ->
          Pagetable.map_linear computed ~physmem:pm ~ea:Kparams.kernel_base
            (kernel_word 0) ~pages:1);
      let edit f =
        f computed (Kernel_sim.Kernel.physmem k);
        f materialized pm;
        check_all ()
      in
      edit (fun pt _ -> ignore (Pagetable.unmap pt ~ea:(kea 5) : int));
      edit (fun pt physmem ->
          Pagetable.map pt ~physmem ~ea:(kea 1500)
            (Pagetable.pte ~rpn:7 ~writable:false ~inhibited:true
               ~shared:true ~cow:false));
      edit (fun pt physmem ->
          Pagetable.map pt ~physmem ~ea:(kea (last_page_end - 1))
            (kernel_word 9));
      edit (fun pt _ ->
          ignore (Pagetable.unmap pt ~ea:(kea (frames - 1)) : int)))
    linear_map_machines

(* --- the frame allocator vs the full free stack ----------------------- *)

(* [Physmem] as it was before the watermark: one stack holding every
   free frame from creation on, lowest on top, and a [bool] per frame. *)
module Ref_physmem = struct
  type t = {
    total : int;
    reserved : int;
    allocated : bool array;
    free_list : int array;
    mutable top : int;
  }

  let create ~ram_bytes ~reserved_bytes =
    let total = ram_bytes / Addr.page_size in
    let reserved = Addr.round_up_pages reserved_bytes in
    if reserved > total then invalid_arg "Physmem.create: reserved > ram";
    let allocated = Array.make total false in
    for i = 0 to reserved - 1 do
      allocated.(i) <- true
    done;
    let free_list = Array.make total 0 in
    let top = ref 0 in
    for rpn = total - 1 downto reserved do
      free_list.(!top) <- rpn;
      incr top
    done;
    { total; reserved; allocated; free_list; top = !top }

  let free_frames t = t.top

  let alloc t =
    if t.top = 0 then None
    else begin
      t.top <- t.top - 1;
      let rpn = t.free_list.(t.top) in
      t.allocated.(rpn) <- true;
      Some rpn
    end

  let free t rpn =
    if rpn < 0 || rpn >= t.total then invalid_arg "Physmem.free: out of range";
    if rpn < t.reserved then invalid_arg "Physmem.free: reserved frame";
    if not t.allocated.(rpn) then invalid_arg "Physmem.free: double free";
    t.allocated.(rpn) <- false;
    t.free_list.(t.top) <- rpn;
    t.top <- t.top + 1

  let is_allocated t rpn =
    if rpn < 0 || rpn >= t.total then false else t.allocated.(rpn)
end

type pm_op =
  | M_alloc
  | M_free of int  (** any rpn: reserved, out of range or free ones too *)
  | M_free_held of int  (** the [n mod held]th frame the stream holds *)

let pm_op_print = function
  | M_alloc -> "alloc"
  | M_free rpn -> Printf.sprintf "free %d" rpn
  | M_free_held n -> Printf.sprintf "free held #%d" n

(* Up to 40 frames, of which anything from none to all are reserved (a
   reservation need not be whole pages), and a stream of allocations and
   frees: of held frames, so that freed frames pile up and are reused,
   and of any rpn from -2 to 42, so reserved, out-of-range and double
   frees too.  After every operation the two must agree on the answer
   (an [Invalid_argument] message is an answer), on [free_frames] and on
   [is_allocated] of every rpn from -2 to [frames + 1]. *)
let prop_physmem_matches_full_stack =
  QCheck.Test.make ~name:"physmem == full free stack" ~count:500
    (QCheck.make
       ~print:(fun ((frames, reserved), ops) ->
         Printf.sprintf "%d frames, %d reserved bytes: %s" frames reserved
           (String.concat "; " (List.map pm_op_print ops)))
       QCheck.Gen.(
         pair
           (int_range 1 40 >>= fun frames ->
            map
              (fun r -> (frames, r))
              (int_bound (frames * Addr.page_size)))
           (list_size (int_range 1 150)
              (frequency
                 [ (5, return M_alloc);
                   (4, map (fun n -> M_free_held n) (int_bound 1000));
                   (2, map (fun r -> M_free (r - 2)) (int_bound 44)) ]))))
    (fun ((frames, reserved_bytes), ops) ->
      let ram_bytes = frames * Addr.page_size in
      let pm = Physmem.create ~ram_bytes ~reserved_bytes
      and rm = Ref_physmem.create ~ram_bytes ~reserved_bytes in
      let held = ref [] in
      let outcome f =
        match f () with () -> Ok () | exception Invalid_argument m -> Error m
      in
      let free rpn =
        outcome (fun () -> Physmem.free pm rpn)
        = outcome (fun () -> Ref_physmem.free rm rpn)
      in
      List.for_all
        (fun op ->
          let same_answer =
            match op with
            | M_alloc ->
                let a = Physmem.alloc pm in
                Option.iter (fun rpn -> held := rpn :: !held) a;
                a = Ref_physmem.alloc rm
            | M_free rpn ->
                held := List.filter (( <> ) rpn) !held;
                free rpn
            | M_free_held n -> (
                match !held with
                | [] -> true
                | l ->
                    let rpn = List.nth l (n mod List.length l) in
                    held := List.filter (( <> ) rpn) l;
                    free rpn)
          in
          same_answer
          && Physmem.free_frames pm = Ref_physmem.free_frames rm
          && List.for_all
               (fun rpn ->
                 Physmem.is_allocated pm rpn = Ref_physmem.is_allocated rm rpn)
               (List.init (frames + 4) (fun i -> i - 2)))
        ops)

(* --- cache scans vs a reference model -------------------------------- *)

module Ref_cache = struct
  type t = {
    sets : int;
    ways : int;
    tags : int option array;
    dirty : bool array;
    stamps : int array;
    mutable tick : int;
  }

  let create ~sets ~ways =
    { sets;
      ways;
      tags = Array.make (sets * ways) None;
      dirty = Array.make (sets * ways) false;
      stamps = Array.make (sets * ways) 0;
      tick = 0 }

  (* hit / miss(dirty writeback) in the old semantics; [allocate_zero]
     is an access that always writes *)
  let access t ~write pa =
    let line = pa lsr 5 in
    let base = line land (t.sets - 1) * t.ways in
    let hit = ref (-1) in
    for w = 0 to t.ways - 1 do
      if t.tags.(base + w) = Some line && !hit < 0 then hit := base + w
    done;
    t.tick <- t.tick + 1;
    if !hit >= 0 then begin
      t.stamps.(!hit) <- t.tick;
      if write then t.dirty.(!hit) <- true;
      `Hit
    end
    else begin
      let free = ref (-1) in
      let lru = ref max_int in
      let lru_way = ref 0 in
      for w = 0 to t.ways - 1 do
        if !free < 0 && t.tags.(base + w) = None then free := w;
        if t.stamps.(base + w) < !lru then begin
          lru := t.stamps.(base + w);
          lru_way := w
        end
      done;
      let i = base + if !free >= 0 then !free else !lru_way in
      let wb = t.tags.(i) <> None && t.dirty.(i) in
      t.tags.(i) <- Some line;
      t.dirty.(i) <- write;
      t.stamps.(i) <- t.tick;
      `Miss wb
    end

  (* tags and dirty bits go; the stamps stay behind, stale *)
  let invalidate_all t =
    Array.fill t.tags 0 (Array.length t.tags) None;
    Array.fill t.dirty 0 (Array.length t.dirty) false
end

type cache_op =
  | Raw of int * bool  (* physical address, write *)
  | Access of int * bool  (* line key, write *)
  | Zero of int
  | Invalidate_all

(* Raw addresses span 0..0x7FFF, so every set of every geometry and
   every offset within a line is reached.  Line keys crowd two sets with
   up to 24 tags each, so every geometry overflows those sets and LRU
   decides most of their fills.  Rare whole-cache invalidations leave
   invalid ways with stale stamps among valid ones — exactly where a
   key-based pick could part from the scan. *)
let cache_op_gen =
  QCheck.Gen.(
    frequency
      [ (20, map2 (fun pa w -> Raw (pa, w)) (int_bound 0x7FFF) bool);
        (40, map2 (fun k w -> Access (k, w)) (int_bound 47) bool);
        (8, map (fun k -> Zero k) (int_bound 47));
        (1, return Invalidate_all) ])

let cache_op_print = function
  | Raw (pa, w) -> Printf.sprintf "%x%c" pa (if w then 'W' else 'R')
  | Access (k, w) -> Printf.sprintf "%d%c" k (if w then 'w' else 'r')
  | Zero k -> Printf.sprintf "%dz" k
  | Invalidate_all -> "inv"

(* Drive a real cache and the reference over the same random stream and
   require the same hit/miss/writeback verdict at every step.  The
   geometries are every one in [Machine.all] (4- and 8-way picks) plus
   the generic fallback scan. *)
let prop_cache_matches_reference geometry_name ~bytes ~ways =
  QCheck.Test.make
    ~name:(Printf.sprintf "cache scans == reference model (%s)" geometry_name)
    ~count:60
    QCheck.(
      make
        ~print:(fun l -> String.concat ";" (List.map cache_op_print l))
        (Gen.list_size (Gen.int_range 1 300) cache_op_gen))
    (fun ops ->
      let c = Cache.create ~bytes ~ways in
      let sets = bytes / Addr.line_size / ways in
      let r = Ref_cache.create ~sets ~ways in
      let pa_of k = ((((k / 2) * sets) + (k land 1)) * Addr.line_size) + 4 in
      let agree got want =
        match (got, want) with
        | Cache.Hit, `Hit -> true
        | Cache.Miss { dirty_writeback }, `Miss wb -> dirty_writeback = wb
        | _ -> false
      in
      List.for_all
        (function
          | Raw (pa, write) ->
              agree
                (Cache.access c ~source:Cache.User ~inhibited:false ~write pa)
                (Ref_cache.access r ~write pa)
          | Access (k, write) ->
              agree
                (Cache.access c ~source:Cache.User ~inhibited:false ~write
                   (pa_of k))
                (Ref_cache.access r ~write (pa_of k))
          | Zero k ->
              agree
                (Cache.allocate_zero c ~source:Cache.User (pa_of k))
                (Ref_cache.access r ~write:true (pa_of k))
          | Invalidate_all ->
              Cache.invalidate_all c;
              Ref_cache.invalidate_all r;
              true)
        ops)

(* --- run primitives vs the single calls they stand for ---------------- *)

type run_op =
  | R_run of {
      key : int;
      slot : int;
      n : int;
      write : bool;
      instr : int;
      inhibited : bool;
    }
  | R_clear of { line : int; lines : int; inhibited : bool }
  | R_single of { key : int; write : bool; inhibited : bool }
  | R_invalidate_all
  | R_lock of bool

type run_mode = Unlocked | Locked | Inhibited

(* Keys crowd two sets per geometry, as in [cache_op_gen]; a run starts
   at any PTE of its line that leaves room for its [n] PTEs.  Page
   clears start on any line of the first few sets' worth of lines, so
   they overlap the crowded sets and each other.  [Locked] streams
   toggle the lock, [Inhibited] streams mark half their references
   cache-inhibited, [Unlocked] streams do neither. *)
let run_op_gen mode =
  let inhibited =
    if mode = Inhibited then QCheck.Gen.bool else QCheck.Gen.return false
  in
  QCheck.Gen.(
    frequency
      ([ ( 30,
           int_range 1 4 >>= fun n ->
           map
             (fun (key, slot, (write, instr), inhibited) ->
               R_run { key; slot; n; write; instr; inhibited })
             (quad (int_bound 47) (int_bound (4 - n))
                (pair bool (oneofl [ 0; 4 ]))
                inhibited) );
         ( 6,
           map3
             (fun line lines inhibited -> R_clear { line; lines; inhibited })
             (int_bound 1023) (int_range 1 128) inhibited );
         ( 20,
           map3
             (fun key write inhibited -> R_single { key; write; inhibited })
             (int_bound 47) bool inhibited );
         (1, return R_invalidate_all) ]
      @ if mode = Locked then [ (3, map (fun b -> R_lock b) bool) ] else []))

let run_op_print = function
  | R_run { key; slot; n; write; instr; inhibited } ->
      Printf.sprintf "run %d+%d x%d%s%s%s" key slot n
        (if write then "W" else "R")
        (if instr > 0 then "i" else "")
        (if inhibited then "!" else "")
  | R_clear { line; lines; inhibited } ->
      Printf.sprintf "clear %d+%d%s" line lines
        (if inhibited then "!" else "")
  | R_single { key; write; inhibited } ->
      Printf.sprintf "%d%s%s" key (if write then "W" else "R")
        (if inhibited then "!" else "")
  | R_invalidate_all -> "inv"
  | R_lock b -> if b then "lock" else "unlock"

let mode_name = function
  | Unlocked -> "unlocked"
  | Locked -> "locked"
  | Inhibited -> "inhibited"

(* Drive three memory systems over one random stream: [fused] through
   the run primitives, unarmed; [fallback] through the same primitives
   with the flight recorder armed at a cadence that never comes due, so
   each takes its reference-by-reference path; [single] through the
   single calls a run stands for ([mem_refs], the instructions, one
   [data_ref] per PTE) and, for a page clear, one uncached store or one
   [dcbz] per line, the [dcbz] charged from [Cache.allocate_zero]'s
   result as [Cost] prices it.  Two bare caches check the primitives'
   results the same way.  After every operation all three [Perf.t]
   records must be equal; every tenth operation and at the end, so must
   the [Cache.t] values: tags, dirty bits, stamps, tick, lock and
   per-source counters. *)
let prop_runs_match_single_calls (machine : Machine.t) mode =
  let geometry = machine.Machine.dcache in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "fused runs (%s %d-way, %s)"
         (let b = geometry.Machine.cache_bytes in
          if b >= 1024 then Printf.sprintf "%dK" (b / 1024)
          else Printf.sprintf "%dB" b)
         geometry.Machine.cache_ways (mode_name mode))
    ~count:25
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map run_op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 200) (run_op_gen mode)))
    (fun ops ->
      let memsys () =
        let perf = Perf.create () in
        (Memsys.create ~machine ~perf, perf)
      in
      let fused, p_fused = memsys ()
      and fallback, p_fallback = memsys ()
      and single, p_single = memsys () in
      Recorder.enable (Memsys.recorder fallback) ~every:(1 lsl 50);
      let cache () =
        Cache.create ~bytes:geometry.Machine.cache_bytes
          ~ways:geometry.Machine.cache_ways
      in
      let c_run = cache () and c_single = cache () in
      let sets =
        geometry.Machine.cache_bytes / Addr.line_size
        / geometry.Machine.cache_ways
      in
      let line_pa k = (((k / 2) * sets) + (k land 1)) * Addr.line_size in
      let latency = machine.Machine.mem_latency in
      let single_dcbz pa =
        let p = p_single in
        p.Perf.dcache_accesses <- p.Perf.dcache_accesses + 1;
        match
          Cache.allocate_zero (Memsys.dcache single) ~source:Cache.Idle_clear
            pa
        with
        | Cache.Hit -> Memsys.stall single Cost.dcbz_cycles
        | Cache.Miss { dirty_writeback } ->
            Memsys.stall single Cost.dcbz_cycles;
            if dirty_writeback then begin
              p.Perf.dcache_writebacks <- p.Perf.dcache_writebacks + 1;
              Memsys.stall single (latency / 2)
            end
        | Cache.Bypass ->
            p.Perf.dcache_bypasses <- p.Perf.dcache_bypasses + 1;
            Memsys.stall single latency
      in
      let results_agree = ref true in
      let agree b = if not b then results_agree := false in
      let step = function
        | R_run { key; slot; n; write; instr; inhibited } ->
            let pa = line_pa key + (8 * slot) in
            List.iter
              (fun m ->
                Memsys.table_run m ~instr ~source:Cache.Htab ~inhibited ~write
                  pa n)
              [ fused; fallback ];
            for k = 0 to n - 1 do
              p_single.Perf.mem_refs <- p_single.Perf.mem_refs + 1;
              if instr > 0 then Memsys.instructions single instr;
              Memsys.data_ref single ~source:Cache.Htab ~inhibited ~write
                (pa + (8 * k))
            done;
            let r =
              Cache.access_run c_run ~source:Cache.Htab ~inhibited ~write pa n
            in
            let rest =
              match r with Cache.Bypass -> Cache.Bypass | _ -> Cache.Hit
            in
            for k = 0 to n - 1 do
              agree
                (Cache.access c_single ~source:Cache.Htab ~inhibited ~write
                   (pa + (8 * k))
                = if k = 0 then r else rest)
            done
        | R_clear { line; lines; inhibited } ->
            let pa = line * Addr.line_size in
            List.iter
              (fun m ->
                Memsys.zero_lines m ~source:Cache.Idle_clear ~inhibited pa
                  ~lines)
              [ fused; fallback ];
            for k = 0 to lines - 1 do
              let pa = pa + (k * Addr.line_size) in
              if inhibited then
                Memsys.data_ref single ~source:Cache.Idle_clear
                  ~inhibited:true ~write:true pa
              else single_dcbz pa
            done;
            if not inhibited then begin
              let to_memory = ref 0 in
              for k = 0 to lines - 1 do
                match
                  Cache.allocate_zero c_single ~source:Cache.Idle_clear
                    (pa + (k * Addr.line_size))
                with
                | Cache.Miss { dirty_writeback = true } | Cache.Bypass ->
                    incr to_memory
                | Cache.Hit | Cache.Miss _ -> ()
              done;
              agree
                (Cache.zero_lines c_run ~source:Cache.Idle_clear pa ~lines
                = !to_memory)
            end
        | R_single { key; write; inhibited } ->
            let pa = line_pa key + 4 in
            List.iter
              (fun m ->
                Memsys.data_ref m ~source:Cache.User ~inhibited ~write pa)
              [ fused; fallback; single ];
            agree
              (Cache.access c_run ~source:Cache.User ~inhibited ~write pa
              = Cache.access c_single ~source:Cache.User ~inhibited ~write pa)
        | R_invalidate_all ->
            List.iter
              (fun m -> Cache.invalidate_all (Memsys.dcache m))
              [ fused; fallback; single ];
            Cache.invalidate_all c_run;
            Cache.invalidate_all c_single
        | R_lock b ->
            List.iter
              (fun m -> Memsys.set_cache_locked m b)
              [ fused; fallback; single ];
            Cache.set_locked c_run b;
            Cache.set_locked c_single b
      in
      let same_perf () = p_fused = p_single && p_fallback = p_single in
      let same_caches () =
        let d = Memsys.dcache single in
        Memsys.dcache fused = d && Memsys.dcache fallback = d
        && c_run = c_single
      in
      let ok =
        List.for_all Fun.id
          (List.mapi
             (fun i op ->
               step op;
               same_perf () && (i mod 10 <> 9 || same_caches ()))
             ops)
      in
      ok && same_caches () && !results_agree
      && Recorder.total (Memsys.recorder fallback) = 0
      && Memsys.sampling fallback
      && not (Memsys.sampling fused))

(* Every D-cache geometry in [Machine.all] once, plus the generic scan's
   3-way cache on the 604-185. *)
let run_machines =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (m : Machine.t) ->
      let g = m.Machine.dcache in
      let g = (g.Machine.cache_bytes, g.Machine.cache_ways) in
      if Hashtbl.mem seen g then false else (Hashtbl.add seen g (); true))
    Machine.all
  @ [ { Machine.ppc604_185 with
        dcache = { Machine.cache_bytes = 768; cache_ways = 3 } } ]

(* --- the plain miss vs the observed miss ------------------------------ *)

(* [Mmu]'s TLB miss is one sequence compiled twice: a plain instance
   that sums every step's cycles into one charge, and an observed one
   that charges step by step and runs the instruments' hooks.  Each
   case below runs two copies of one machine side by side, one plain
   and one watched, and requires them to agree.  The watcher is one of
   these, alone: *)
type watch =
  | Recorder  (** the flight recorder, at a cadence that never comes due *)
  | Traced  (** the event trace *)
  | Spanned  (** request spans, one request open throughout *)
  | Shadowed  (** a shadow checker *)

let watch_name = function
  | Recorder -> "recorder"
  | Traced -> "traced"
  | Spanned -> "spanned"
  | Shadowed -> "shadowed"

let observed mmu =
  Memsys.observed (Mmu.memsys mmu) || Option.is_some (Mmu.shadow mmu)

(* Arm [w] on [mmu]'s machine, binding the spans' request to [pids];
   returns the check that the watcher saw the run. *)
let watch w mmu ~pids =
  let ms = Mmu.memsys mmu in
  match w with
  | Recorder ->
      Recorder.enable (Memsys.recorder ms) ~every:(1 lsl 50);
      fun () ->
        Alcotest.(check int) "the recorder never fired" 0
          (Recorder.total (Memsys.recorder ms))
  | Traced ->
      let tr = Memsys.trace ms in
      Trace.enable tr;
      fun () ->
        Alcotest.(check bool) "the trace saw the misses" true
          (Trace.kind_count tr Trace.Dtlb_miss > 0
          && Trace.kind_count tr Trace.Itlb_miss > 0
          && Trace.kind_count tr Trace.Tlb_reload > 0)
  | Spanned ->
      let sp = Memsys.span ms in
      Span.enable sp;
      let rid = Span.request_begin sp ~cls:0 ~arrival:0 in
      List.iter (fun pid -> Span.bind_pid sp ~pid ~rid) pids;
      Span.set_current_request sp rid;
      fun () ->
        Alcotest.(check bool) "the request was charged reloads" true
          ((Span.request sp rid).Span.q_reloads > 0)
  | Shadowed ->
      let sh = Shadow.create () in
      Mmu.attach_shadow mmu sh;
      fun () ->
        Alcotest.(check int) "no divergence" 0 (Shadow.total_divergences sh);
        Alcotest.(check bool) "accesses cross-checked" true
          (Shadow.checks sh > 0)

(* Two MMUs on one machine, built at one seed behind identical page
   tables, driven by one random stream of loads, stores, fetches and
   precise flushes over more pages than the TLBs hold.  One runs
   unobserved, so every miss takes the plain instance; the other is
   watched, so every miss takes the observed one.  After every
   operation the two must agree on the answer and be equal, compared
   structurally in place, in their [Perf.t], both [Cache.t] and both
   [Tlb.t] (contents, LRU stamps and tick); every hundredth operation
   and at the end, in their [Htab.t] too (every slot's two words and
   the reclaim cursor).

   The stream is built to reach every case the sequence has: 24 pages
   share one primary PTEG (eight VSIDs, three page indices each), so
   their PTEs fill the primary and secondary groups and the search hits
   in all sixteen slots, and the eight that do not fit miss the htab,
   fill it and evict.  One page in five is read-only and stores go to
   them, and a few pages are unmapped.  A planted mutant that charged a
   secondary-PTEG hit without the primary's eight reads failed this
   test on every machine with an htab. *)
let reload_vsid_base = 0x5A0

let reload_equivalence ?(knobs = Mmu.default_knobs) ?(watched_by = Recorder)
    (machine : Machine.t) () =
  let n_ptegs = Machine.n_ptegs machine in
  let vsid sr = reload_vsid_base + sr in
  let target = 0x155 land (n_ptegs - 1) in
  let colliding =
    Array.init 24 (fun j ->
        let sr = 1 + (j mod 8) in
        let pidx =
          ((target lxor vsid sr) land (n_ptegs - 1)) + (j / 8 * n_ptegs)
        in
        (sr lsl 28) lor (pidx lsl Addr.page_shift))
  in
  let stream = Rng.create ~seed:2024 in
  let spread =
    Array.init 300 (fun _ ->
        ((1 + Rng.int stream 8) lsl 28)
        lor (Rng.int stream 0x10000 lsl Addr.page_shift))
  in
  let pages = Array.append colliding spread in
  let read_only ea = Addr.epn ea mod 5 = 2 in
  let unmapped ea = Addr.epn ea mod 61 = 7 in
  let walk ~on_ref ea =
    let epn = Addr.epn ea in
    on_ref (0x6000 + (((epn lsr 10) land 0x3FF) * 4));
    on_ref (0x10_0000 + ((epn land 0x3FFF) * 4));
    if unmapped ea then -1
    else
      Mmu.pack ~rpn:((epn * 7) land 0xFFFF) ~writable:(not (read_only ea))
        ~inhibited:false
  in
  let mmu () =
    let perf = Perf.create () in
    let memsys = Memsys.create ~machine ~perf in
    let m =
      Mmu.create ~machine ~memsys ~knobs ~backing:{ Mmu.walk }
        ~rng:(Rng.create ~seed:42) ()
    in
    Segment.load_user (Mmu.segments m) vsid;
    (m, memsys, perf)
  in
  let plain, ms_plain, p_plain = mmu ()
  and watched, ms_watched, p_watched = mmu () in
  let saw = watch watched_by watched ~pids:[] in
  let fail i what =
    Alcotest.failf "%s: op %d: %s differ" machine.Machine.name i what
  in
  (* which of the sixteen slots an htab-served reload found its PTE in,
     and how many stores met a read-only page *)
  let slots_hit = Array.make 16 false and ro_store_faults = ref 0 in
  let ops = 3000 in
  for i = 0 to ops - 1 do
    let ea =
      if Rng.int stream 5 < 2 then colliding.(Rng.int stream 24)
      else pages.(Rng.int stream (Array.length pages))
    in
    let ea = ea lor (Rng.int stream (Addr.page_size / 4) * 4) in
    let roll = Rng.int stream 100 in
    if roll < 4 then begin
      Mmu.flush_page plain ea;
      Mmu.flush_page watched ea
    end
    else begin
      let kind =
        if roll < 50 then Mmu.Load
        else if roll < 80 then Mmu.Store
        else Mmu.Fetch
      in
      let tlb =
        match kind with Mmu.Fetch -> Mmu.itlb plain | _ -> Mmu.dtlb plain
      in
      let vsid = Segment.vsid_for (Mmu.segments plain) ea in
      let vpn = Addr.vpn_of ~vsid ~ea in
      (match Mmu.htab plain with
      | Some h when Tlb.peek_slot tlb vpn < 0 ->
          let page_index = Addr.page_index ea in
          let slot = Htab.find_slot h ~vsid ~page_index in
          if slot >= 0 then
            slots_hit.(Htab.probe_len h ~vsid ~page_index slot - 1) <- true
      | _ -> ());
      let pa = Mmu.access_pa plain kind ea in
      if pa <> Mmu.access_pa watched kind ea then fail i "answers";
      if pa < 0 && kind = Mmu.Store && read_only ea && not (unmapped ea) then
        incr ro_store_faults
    end;
    if p_plain <> p_watched then fail i "counters";
    if
      Memsys.dcache ms_plain <> Memsys.dcache ms_watched
      || Memsys.icache ms_plain <> Memsys.icache ms_watched
    then fail i "caches";
    if Mmu.itlb plain <> Mmu.itlb watched || Mmu.dtlb plain <> Mmu.dtlb watched
    then fail i "TLBs";
    if i mod 100 = 99 && Mmu.htab plain <> Mmu.htab watched then
      fail i "htab entries"
  done;
  if Mmu.htab plain <> Mmu.htab watched then fail ops "htab entries";
  Alcotest.(check bool) "one side observed, the other not" true
    (observed watched && not (observed plain));
  saw ();
  Alcotest.(check bool) "stores met read-only pages" true
    (!ro_store_faults > 0);
  Alcotest.(check bool) "fetches reloaded" true (p_plain.Perf.itlb_misses > 0);
  if Mmu.htab plain <> None then begin
    Alcotest.(check (array bool)) "hits in every primary and secondary slot"
      (Array.make 16 true) slots_hit;
    Alcotest.(check bool) "htab misses filled and evicted" true
      (p_plain.Perf.htab_misses > 0 && p_plain.Perf.htab_evicts > 0)
  end

(* The same through whole kernels: two booted at one seed, each with a
   300-page task and its fork, run one random stream of [Kernel.touch]
   loads, stores and fetches over the task's text and data pages, with
   switches between the two tasks and precise single-page flushes.  The
   second kernel is watched from after its boot.  Stores to text pages
   meet read-only PTEs and end in [Segfault]; the outcome of every
   operation must agree, and after it the two kernels' [Perf.t], both
   [Cache.t] and the current [Tlb.t] must be equal, and at the end
   their [Htab.t]. *)
let kernel_reload_equivalence ?(policy = Kernel_sim.Policy.optimized)
    ?(watched_by = Recorder) (machine : Machine.t) () =
  let module Kernel = Kernel_sim.Kernel in
  let text_base = Kernel_sim.Mm.user_text_base in
  let text_pages = 16 and data_pages = 300 in
  let boot () =
    let k = Kernel.boot ~machine ~policy ~seed:42 () in
    let parent = Kernel.spawn k ~text_pages ~data_pages () in
    Kernel.switch_to k parent;
    let child = Kernel.sys_fork k in
    (k, [| parent; child |])
  in
  let plain, plain_tasks = boot () and watched, watched_tasks = boot () in
  let pids =
    List.map (fun t -> t.Kernel_sim.Task.pid) (Array.to_list watched_tasks)
  in
  let saw = watch watched_by (Kernel.mmu watched) ~pids in
  let stream = Rng.create ~seed:77 in
  let segfaults = ref 0 in
  let state k =
    let mmu = Kernel.mmu k and ms = Kernel.memsys k in
    ( Kernel.perf k,
      Memsys.dcache ms,
      Memsys.icache ms,
      Mmu.itlb mmu,
      Mmu.dtlb mmu )
  in
  for i = 0 to 1999 do
    let roll = Rng.int stream 100 in
    let task = Rng.int stream 2 in
    let page = Rng.int stream (text_pages + data_pages) in
    let ea =
      text_base + (page lsl Addr.page_shift)
      + (Rng.int stream (Addr.page_size / Addr.line_size) lsl Addr.line_shift)
    in
    let step k tasks =
      match
        if roll < 3 then Kernel.switch_to k tasks.(task)
        else if roll < 6 then
          match Kernel.current k with
          | Some t -> Kernel.flush_range k ~mm:t.Kernel_sim.Task.mm ~ea ~pages:1
          | None -> ()
        else
          Kernel.touch k
            (if roll < 55 then Mmu.Load
             else if roll < 85 then Mmu.Store
             else Mmu.Fetch)
            ea
      with
      | () -> true
      | exception Kernel.Segfault _ -> false
    in
    let ok = step plain plain_tasks in
    if ok <> step watched watched_tasks then
      Alcotest.failf "%s: op %d: outcomes differ" machine.Machine.name i;
    if not ok then incr segfaults;
    if state plain <> state watched then
      Alcotest.failf "%s: op %d: kernels differ" machine.Machine.name i
  done;
  if Mmu.htab (Kernel.mmu plain) <> Mmu.htab (Kernel.mmu watched) then
    Alcotest.failf "%s: htab entries differ" machine.Machine.name;
  let p = Kernel.perf plain in
  Alcotest.(check bool) "one kernel observed, the other not" true
    (observed (Kernel.mmu watched) && not (observed (Kernel.mmu plain)));
  saw ();
  Alcotest.(check bool) "TLB misses, faults and read-only stores" true
    (p.Perf.dtlb_misses > 0 && p.Perf.itlb_misses > 0
    && p.Perf.page_faults > 0 && !segfaults > 0)

(* --- a kernel path's fused fetch vs fetch by fetch ---------------------- *)

(* [Kernel.run_path]'s fetches as they were before they fused: its
   instructions, then one [Mmu.access_pa] per line, cycling over at most
   48 lines of text. *)
let fetch_by_fetch k ~off ~instrs =
  let module Kernel = Kernel_sim.Kernel in
  let code_ea = Kparams.kernel_virt_of_phys (Kparams.text_pa + off) in
  Memsys.instructions (Kernel.memsys k) instrs;
  let lines = max 1 (instrs / 8) in
  let distinct = min lines 48 in
  for i = 0 to lines - 1 do
    let ea = code_ea + (i mod distinct * Addr.line_size) in
    if Mmu.access_pa (Kernel.mmu k) Mmu.Fetch ea < 0 then
      raise (Kernel.Kernel_fault ea)
  done

(* Two 604-185 kernels booted at one seed run one random stream of
   kernel paths: [fused] through [Kernel.run_path] (with no data
   references) and [stepwise] through [fetch_by_fetch].  A path is 0 to
   3,000 instructions (1 to 375 fetches) at a line-aligned offset
   anywhere in the text, a quarter of them within 2 KB of physical
   0x20000, a 128 KB boundary.  At 4 CPUs the stream also moves the
   active CPU; CPU 2 has no kernel IBAT, so its fetches reload through
   the TLB and the kernel's linear map, and under a BAT policy CPU 3's
   IBAT maps only the first 128 KB, so a path across the boundary is
   covered in part.  [armed] arms both kernels' flight recorders at a
   cadence that never comes due, so both fetch line by line.  After
   every path the two kernels' [Perf.fields] and I-caches must be
   equal. *)
let fused_fetch_equivalence ~policy ~cpus ~armed () =
  let module Kernel = Kernel_sim.Kernel in
  let boot () =
    let k = Kernel.boot ~machine:Machine.ppc604_185 ~policy ~seed:42 ~cpus () in
    if armed then Recorder.enable (Kernel.recorder k) ~every:(1 lsl 50);
    let mmu = Kernel.mmu k in
    if cpus = 4 then begin
      Bat.clear (Mmu.ibat_of mmu ~cpu:2) ~index:0;
      if policy.Kernel_sim.Policy.bat_kernel_mapping then
        Bat.set (Mmu.ibat_of mmu ~cpu:3) ~index:0 ~base_ea:Kparams.kernel_base
          ~length:Bat.min_block ~phys_base:0
    end;
    k
  in
  let fused = boot () and stepwise = boot () in
  let stream = Rng.create ~seed:99 in
  let bat_paths = ref 0 in
  for i = 0 to 399 do
    if cpus > 1 && Rng.int stream 4 = 0 then begin
      let cpu = Rng.int stream cpus in
      Kernel.set_active_cpu fused cpu;
      Kernel.set_active_cpu stepwise cpu
    end;
    let off =
      if Rng.int stream 4 = 0 then
        0x10000 - 2048 + (Rng.int stream 128 * Addr.line_size)
      else
        Rng.int stream ((Kparams.text_bytes - 2048) / Addr.line_size)
        * Addr.line_size
    in
    let instrs = Rng.int stream 3001 in
    if
      Bat.covers
        (Mmu.ibat (Kernel.mmu fused))
        (Kparams.kernel_virt_of_phys (Kparams.text_pa + off))
    then incr bat_paths;
    Kernel.run_path fused ~off ~instrs ~data:[];
    fetch_by_fetch stepwise ~off ~instrs;
    if Perf.fields (Kernel.perf fused) <> Perf.fields (Kernel.perf stepwise)
    then
      Alcotest.failf "path %d (%#x, %d instructions): counters differ" i off
        instrs;
    if
      Memsys.icache (Kernel.memsys fused)
      <> Memsys.icache (Kernel.memsys stepwise)
    then
      Alcotest.failf "path %d (%#x, %d instructions): I-caches differ" i off
        instrs
  done;
  List.iter
    (fun k ->
      Alcotest.(check int) "the recorder never fired" 0
        (Recorder.total (Kernel.recorder k));
      Alcotest.(check bool) "armed as asked" armed
        (Memsys.sampling (Kernel.memsys k)))
    [ fused; stepwise ];
  Alcotest.(check bool) "paths under a kernel IBAT as the policy has it"
    policy.Kernel_sim.Policy.bat_kernel_mapping (!bat_paths > 0);
  Alcotest.(check bool) "fetches reloaded through the TLB"
    (cpus = 4 || not policy.Kernel_sim.Policy.bat_kernel_mapping)
    ((Kernel.perf fused).Perf.itlb_misses > 0)

let fused_fetch_cases =
  List.concat_map
    (fun (name, policy) ->
      List.concat_map
        (fun cpus ->
          List.map
            (fun armed ->
              Alcotest.test_case
                (Printf.sprintf "fused fetch == fetch by fetch (%s, %d CPU%s%s)"
                   name cpus
                   (if cpus = 1 then "" else "s")
                   (if armed then ", recorder armed" else ""))
                `Quick
                (fused_fetch_equivalence ~policy ~cpus ~armed))
            [ false; true ])
        [ 1; 4 ])
    [ ("optimized", Kernel_sim.Policy.optimized);
      ("baseline", Kernel_sim.Policy.baseline) ]

(* Every machine, plus the 603 without an htab and the 604 with
   cache-inhibited page tables. *)
let reload_machines =
  List.map (fun m -> (Machine.slug m, Mmu.default_knobs, m)) Machine.all
  @ [ ( "603-133, no htab",
        { Mmu.default_knobs with use_htab = false },
        Machine.ppc603_133 );
      ( "604-185, page tables inhibited",
        { Mmu.default_knobs with cache_inhibit_pagetables = true },
        Machine.ppc604_185 ) ]

let reload_kernels =
  [ ("604-185", Kernel_sim.Policy.optimized, Machine.ppc604_185);
    ("603-133", Kernel_sim.Policy.optimized, Machine.ppc603_133);
    ( "603-133, no htab",
      { Kernel_sim.Policy.optimized with use_htab = false },
      Machine.ppc603_133 ) ]

let suite =
  [ Alcotest.test_case "flat slot accessors" `Quick test_slot_accessors;
    Alcotest.test_case "htab tag exactness" `Quick test_htab_tag_exactness;
    QCheck_alcotest.to_alcotest (prop_tlb_matches_reference Tlb.Lru);
    QCheck_alcotest.to_alcotest (prop_tlb_matches_reference Tlb.Fifo);
    QCheck_alcotest.to_alcotest
      (prop_insert_flat_matches_insert_replacing Tlb.Lru);
    QCheck_alcotest.to_alcotest
      (prop_insert_flat_matches_insert_replacing Tlb.Fifo);
    QCheck_alcotest.to_alcotest prop_htab_search_matches_linear_scan;
    QCheck_alcotest.to_alcotest
      (prop_cache_matches_reference "32K 4-way" ~bytes:(32 * 1024) ~ways:4);
    QCheck_alcotest.to_alcotest
      (prop_cache_matches_reference "16K 4-way" ~bytes:(16 * 1024) ~ways:4);
    QCheck_alcotest.to_alcotest
      (prop_cache_matches_reference "16K 8-way" ~bytes:(16 * 1024) ~ways:8);
    QCheck_alcotest.to_alcotest
      (prop_cache_matches_reference "32K 8-way" ~bytes:(32 * 1024) ~ways:8);
    QCheck_alcotest.to_alcotest
      (prop_cache_matches_reference "768B 3-way" ~bytes:768 ~ways:3);
    QCheck_alcotest.to_alcotest (prop_htab_matches_boxed_reference 8 ~count:300);
    QCheck_alcotest.to_alcotest
      (prop_htab_matches_boxed_reference 16 ~count:300);
    QCheck_alcotest.to_alcotest
      (prop_htab_matches_boxed_reference 64 ~count:200);
    QCheck_alcotest.to_alcotest
      (prop_htab_matches_boxed_reference 2048 ~count:50);
    Alcotest.test_case "htab footprint: two words per PTE" `Quick
      test_htab_footprint;
    QCheck_alcotest.to_alcotest prop_pagetable_matches_boxed_reference;
    Alcotest.test_case "page-table footprint: the linear map" `Quick
      test_linear_map_footprint;
    Alcotest.test_case "footprint: a booted 604-185 kernel" `Quick
      test_booted_kernel_footprint ]
  @ List.concat_map
      (fun machine ->
        List.map
          (fun mode ->
            QCheck_alcotest.to_alcotest
              (prop_runs_match_single_calls machine mode))
          [ Unlocked; Locked; Inhibited ])
      run_machines
  @ List.map
      (fun (name, knobs, machine) ->
        Alcotest.test_case
          (Printf.sprintf "straight-line reload == stepwise (%s)" name)
          `Quick
          (reload_equivalence ~knobs machine))
      reload_machines
  @ List.map
      (fun (name, policy, machine) ->
        Alcotest.test_case
          (Printf.sprintf "straight-line reload == stepwise, kernel (%s)" name)
          `Quick
          (kernel_reload_equivalence ~policy machine))
      reload_kernels
  @ List.concat_map
      (fun watched_by ->
        List.map
          (fun (name, knobs, machine) ->
            Alcotest.test_case
              (Printf.sprintf "plain miss == %s miss (%s)"
                 (watch_name watched_by) name)
              `Quick
              (reload_equivalence ~knobs ~watched_by machine))
          reload_machines
        @ List.map
            (fun (name, policy, machine) ->
              Alcotest.test_case
                (Printf.sprintf "plain miss == %s miss, kernel (%s)"
                   (watch_name watched_by) name)
                `Quick
                (kernel_reload_equivalence ~policy ~watched_by machine))
            reload_kernels)
      [ Traced; Spanned; Shadowed ]
  @ [ Alcotest.test_case "footprint: the kernel's linear map" `Quick
        test_kernel_linear_map_footprint;
      Alcotest.test_case "linear map: computed == materialized" `Quick
        test_linear_map_computed_vs_materialized;
      QCheck_alcotest.to_alcotest prop_physmem_matches_full_stack ]
  @ fused_fetch_cases
