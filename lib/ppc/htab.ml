type t = {
  ptegs : int;
  base : Addr.pa;
  entries : Pte.t array;  (* pteg-major: entries.(pteg * 8 + slot) *)
  tags : int array;
      (* flat probe tags, one per slot: (vsid << 16) | page_index for a
         valid entry, -1 otherwise.  The probe loops compare one int per
         slot instead of touching three fields of a [Pte.t] record; the
         invariant [tags.(i) >= 0 <=> entries.(i).valid] is maintained by
         every function here that writes a valid bit (all valid-bit
         writes in the repo live in this module). *)
  mutable cursor : int;   (* reclaim scan position *)
}

let slots_per_pteg = 8
let pte_bytes = 8

(* The search tag for (vsid, page_index).  [write_entry] masks what it
   stores, so a stored tag is always built from masked fields; searching
   with an unmasked VSID/page-index simply never matches — exactly the
   behaviour of [Pte.matches] on the record fields. *)
let tag_of ~vsid ~page_index = (vsid lsl 16) lor page_index

let create ?(base_pa = 0x00100000) ~n_ptes () =
  let ptegs = n_ptes / slots_per_pteg in
  if ptegs <= 0 || ptegs land (ptegs - 1) <> 0 then
    invalid_arg "Htab.create: n_ptes/8 must be a positive power of two";
  { ptegs;
    base = base_pa;
    entries = Array.init n_ptes (fun _ -> Pte.invalid ());
    tags = Array.make n_ptes (-1);
    cursor = 0 }

let n_ptegs t = t.ptegs
let capacity t = Array.length t.entries
let base_pa t = t.base

let pte_pa t ~pteg ~slot =
  t.base + (((pteg * slots_per_pteg) + slot) * pte_bytes)

let[@inline] hash1 t ~vsid ~page_index =
  Pte.hash_primary ~n_ptegs:t.ptegs ~vsid ~page_index

let[@inline] hash2 t ~primary = Pte.hash_secondary ~n_ptegs:t.ptegs ~primary

(* Search one PTEG for a matching tag, reporting each slot examined.
   Returns the flat slot index, or -1.  Top-level recursion so the probe
   loop is not a per-call closure allocation. *)
let rec probe_scan (tags : int array) (tag : int) base pa0
    (on_ref : int -> unit) slot =
  if slot >= slots_per_pteg then -1
  else begin
    on_ref (pa0 + (slot * pte_bytes));
    if tags.(base + slot) = tag then base + slot
    else probe_scan tags tag base pa0 on_ref (slot + 1)
  end

let search_pteg_slot t ~pteg ~tag ~on_ref =
  let base = pteg * slots_per_pteg in
  probe_scan t.tags tag base (t.base + (base * pte_bytes)) on_ref 0

let search_slot t ~vsid ~page_index ~on_ref =
  let tag = tag_of ~vsid ~page_index in
  let p = hash1 t ~vsid ~page_index in
  let i = search_pteg_slot t ~pteg:p ~tag ~on_ref in
  if i >= 0 then i
  else search_pteg_slot t ~pteg:(hash2 t ~primary:p) ~tag ~on_ref

let slot_pte t i = t.entries.(i)

(* Slots a search examined, from where it stopped: [k + 1] for a hit in
   slot [k] of the primary PTEG, eight more for the secondary, all 16 on
   a miss.  (With a single PTEG both hashes name it and the first pass
   finds any hit, so a hit is always "primary".) *)
let probe_len t ~vsid ~page_index i =
  if i < 0 then 2 * slots_per_pteg
  else if i / slots_per_pteg = hash1 t ~vsid ~page_index then
    (i mod slots_per_pteg) + 1
  else slots_per_pteg + (i mod slots_per_pteg) + 1

let search t ~vsid ~page_index ~on_ref =
  let i = search_slot t ~vsid ~page_index ~on_ref in
  if i < 0 then None else Some t.entries.(i)

let search_counted t ~vsid ~page_index ~on_ref =
  let i = search_slot t ~vsid ~page_index ~on_ref in
  ( (if i < 0 then None else Some t.entries.(i)),
    probe_len t ~vsid ~page_index i )

type replacement =
  | Arbitrary
  | Second_chance
  | Prefer_zombie of (int -> bool)

type insert_outcome =
  | Filled_empty
  | Replaced of Pte.t

(* Find a reusable slot in a PTEG: an entry with the same tag (update in
   place) or an invalid slot.  Reports references. *)
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
  e.Pte.valid <- true;
  e.Pte.vsid <- vsid land 0xFFFFFF;
  e.Pte.page_index <- page_index land 0xFFFF;
  e.Pte.rpn <- rpn land 0xFFFFF;
  e.Pte.secondary <- secondary;
  e.Pte.referenced <- true;
  e.Pte.changed <- changed;
  e.Pte.wimg <- wimg;
  e.Pte.protection <- protection;
  t.tags.(i) <- tag_of ~vsid:e.Pte.vsid ~page_index:e.Pte.page_index

(* Second-chance victim selection over the 16 candidate slots: an
   unreferenced entry if one exists, else strip every R bit and choose
   arbitrarily. *)
let pick_victim_second_chance t ~rng ~primary ~secondary ~on_ref =
  let candidate = ref None in
  let examine pteg =
    for slot = 0 to slots_per_pteg - 1 do
      on_ref (pte_pa t ~pteg ~slot);
      let pte = t.entries.((pteg * slots_per_pteg) + slot) in
      if (not pte.Pte.referenced) && !candidate = None then
        candidate := Some (pteg, slot)
    done
  in
  examine primary;
  (match !candidate with None -> examine secondary | Some _ -> ());
  match !candidate with
  | Some c -> c
  | None ->
      (* everyone was referenced: second chance for all *)
      List.iter
        (fun pteg ->
          for slot = 0 to slots_per_pteg - 1 do
            t.entries.((pteg * slots_per_pteg) + slot).Pte.referenced <- false
          done)
        [ primary; secondary ];
      let in_secondary = Rng.bool rng in
      ((if in_secondary then secondary else primary), Rng.int rng slots_per_pteg)

(* Zombie-aware victim selection: the first entry whose VSID the
   predicate marks dead; arbitrary if the 16 candidates are all live. *)
let pick_victim_zombie t ~rng ~is_zombie ~primary ~secondary ~on_ref =
  let candidate = ref None in
  let examine pteg =
    for slot = 0 to slots_per_pteg - 1 do
      if !candidate = None then begin
        on_ref (pte_pa t ~pteg ~slot);
        let pte = t.entries.((pteg * slots_per_pteg) + slot) in
        if is_zombie pte.Pte.vsid then candidate := Some (pteg, slot)
      end
    done
  in
  examine primary;
  (match !candidate with None -> examine secondary | Some _ -> ());
  match !candidate with
  | Some c -> c
  | None ->
      let in_secondary = Rng.bool rng in
      ((if in_secondary then secondary else primary), Rng.int rng slots_per_pteg)

let insert ?(policy = Arbitrary) ?(changed = false) t ~rng ~vsid ~page_index
    ~rpn ~wimg ~protection ~on_ref =
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
          write_entry t ~pteg:s ~slot ~secondary:true ~vsid ~page_index ~rpn
            ~wimg ~protection ~changed;
          Filled_empty
      | None ->
          (* Both PTEGs full: pick a victim without checking whether its
             VSID is live (the hardware view cannot tell). *)
          let pteg, slot =
            match policy with
            | Arbitrary ->
                let in_secondary = Rng.bool rng in
                ((if in_secondary then s else p), Rng.int rng slots_per_pteg)
            | Second_chance ->
                pick_victim_second_chance t ~rng ~primary:p ~secondary:s
                  ~on_ref
            | Prefer_zombie is_zombie ->
                pick_victim_zombie t ~rng ~is_zombie ~primary:p ~secondary:s
                  ~on_ref
          in
          let in_secondary = pteg = s in
          let victim = t.entries.((pteg * slots_per_pteg) + slot) in
          let victim_copy =
            Pte.make ~secondary:victim.Pte.secondary ~wimg:victim.Pte.wimg
              ~protection:victim.Pte.protection ~vsid:victim.Pte.vsid
              ~page_index:victim.Pte.page_index ~rpn:victim.Pte.rpn ()
          in
          on_ref (pte_pa t ~pteg ~slot);
          write_entry t ~pteg ~slot ~secondary:in_secondary ~vsid ~page_index
            ~rpn ~wimg ~protection ~changed;
          Replaced victim_copy
    end

let invalidate_page t ~vsid ~page_index ~on_ref =
  let i = search_slot t ~vsid ~page_index ~on_ref in
  if i < 0 then false
  else begin
    t.entries.(i).Pte.valid <- false;
    t.tags.(i) <- -1;
    true
  end

let reclaim_zombies t ~is_zombie ~max_ptes ~on_ref =
  let total = capacity t in
  let budget = min max_ptes total in
  let reclaimed = ref 0 in
  for _ = 1 to budget do
    let i = t.cursor in
    t.cursor <- (t.cursor + 1) mod total;
    let pteg = i / slots_per_pteg and slot = i mod slots_per_pteg in
    on_ref (pte_pa t ~pteg ~slot);
    let pte = t.entries.(i) in
    if pte.Pte.valid && is_zombie pte.Pte.vsid then begin
      pte.Pte.valid <- false;
      t.tags.(i) <- -1;
      incr reclaimed
    end
  done;
  !reclaimed

let occupancy t =
  let n = ref 0 in
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) >= 0 then incr n
  done;
  !n

let count_valid t ~f =
  Array.fold_left
    (fun n pte -> if pte.Pte.valid && f pte then n + 1 else n)
    0 t.entries

let iter_valid t ~f =
  Array.iter (fun pte -> if pte.Pte.valid then f pte) t.entries

let clear t =
  Array.iter (fun pte -> pte.Pte.valid <- false) t.entries;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.cursor <- 0

let histogram t =
  let h = Array.make (slots_per_pteg + 1) 0 in
  for pteg = 0 to t.ptegs - 1 do
    let valid = ref 0 in
    for slot = 0 to slots_per_pteg - 1 do
      if t.tags.((pteg * slots_per_pteg) + slot) >= 0 then incr valid
    done;
    h.(!valid) <- h.(!valid) + 1
  done;
  h
