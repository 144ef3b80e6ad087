(* Each slot holds the two words of the paper's Figure 1, interleaved in
   one [int array]: slot [i]'s word 0 at [2i] and its word 1 at [2i + 1],
   so a hit reads both from one host cache line.

   Word 0 is the search tag, [vsid lsl 16 lor page_index] for a valid
   entry and -1 for an invalid one: Figure 1's first word (V, VSID, API)
   with the whole 16-bit page index standing in for the API, so the probe
   compares one int per slot.  Word 1 is Figure 1's second word, high
   bits to low:

     RPN (20) | H | R | C | W | I | M | G | - | PP (2)

   The H bit moves down from the first word into one of the second
   word's reserved bits.  PP reads as it does for a user (key 1): 0b10
   read/write, 0b11 read-only, 0b00 no access.  An invalid slot's
   word 1 is never read. *)
type t = {
  ptegs : int;
  base : Addr.pa;
  words : int array;
  mutable cursor : int;   (* reclaim scan position *)
}

let slots_per_pteg = 8
let pte_bytes = 8
let pteg_bytes = slots_per_pteg * pte_bytes
let ptes_per_line = Addr.line_size / pte_bytes

let g_bit = 1 lsl 3
let m_bit = 1 lsl 4
let i_bit = 1 lsl 5
let w_bit = 1 lsl 6
let c_bit = 1 lsl 7
let r_bit = 1 lsl 8
let h_bit = 1 lsl 9
let rpn_shift = 12

(* The search tag for (vsid, page_index).  [write_entry] masks what it
   stores, so a stored tag is always built from masked fields; searching
   with an unmasked VSID/page-index simply never matches — exactly the
   behaviour of [Pte.matches] on the record fields. *)
let tag_of ~vsid ~page_index = (vsid lsl 16) lor page_index

let create ?(base_pa = 0x00100000) ~n_ptes () =
  let ptegs = n_ptes / slots_per_pteg in
  if ptegs <= 0 || ptegs land (ptegs - 1) <> 0 then
    invalid_arg "Htab.create: n_ptes/8 must be a positive power of two";
  if base_pa land (pteg_bytes - 1) <> 0 then
    invalid_arg "Htab.create: base_pa must be PTEG-aligned (64 bytes)";
  { ptegs; base = base_pa; words = Array.make (2 * n_ptes) (-1); cursor = 0 }

let n_ptegs t = t.ptegs
let capacity t = Array.length t.words / 2
let base_pa t = t.base

let[@inline] slot_pa t i = t.base + (i * pte_bytes)
let pte_pa t ~pteg ~slot = slot_pa t ((pteg * slots_per_pteg) + slot)

let[@inline] hash1 t ~vsid ~page_index =
  Pte.hash_primary ~n_ptegs:t.ptegs ~vsid ~page_index

let[@inline] hash2 t ~primary = Pte.hash_secondary ~n_ptegs:t.ptegs ~primary

(* Which line runs a probe read, defined once for every reader.  A
   probe examines the primary PTEG's eight slots and then the
   secondary's, in order, stopping at a hit; a PTEG is two 32-byte lines
   of four PTEs ([create] aligns it).  So a probe that examined [len]
   slots ([probe_len]) read [runs ~len] line runs, and run [k] is the
   first [run_slots ~len k] slots of line [k] in that order.  A scan of
   the first [m] slots of one PTEG is the probe of [m] slots from it.
   Every size here is a power of two. *)
let lines_per_pteg = slots_per_pteg / ptes_per_line

let[@inline] runs ~len = (len + ptes_per_line - 1) / ptes_per_line

let[@inline] run_slots ~len k =
  Addr.imin ptes_per_line (len - (k * ptes_per_line))

let[@inline] pteg_run_pa t ~primary k =
  let pteg = if k < lines_per_pteg then primary else hash2 t ~primary in
  t.base + (pteg * pteg_bytes)
  + ((k land (lines_per_pteg - 1)) * Addr.line_size)

let[@inline] run_pa t ~vsid ~page_index k =
  pteg_run_pa t ~primary:(hash1 t ~vsid ~page_index) k

let iter_runs t ~primary ~len ~(on_run : Addr.pa -> int -> unit) =
  for k = 0 to runs ~len - 1 do
    on_run (pteg_run_pa t ~primary k) (run_slots ~len k)
  done

(* The flat slot index of [tag] in the PTEG whose first slot is [base],
   or -1: the eight word-0 reads unrolled, as [Tlb.find_slot] and
   [Cache.scan4] unroll theirs.  [unsafe_get] is in bounds by
   construction: [base] is a PTEG's first slot, so
   [2 * (base + 7) < Array.length words]. *)
let[@inline always] find_in_pteg (words : int array) (tag : int) base =
  let w = 2 * base in
  if Array.unsafe_get words w = tag then base
  else if Array.unsafe_get words (w + 2) = tag then base + 1
  else if Array.unsafe_get words (w + 4) = tag then base + 2
  else if Array.unsafe_get words (w + 6) = tag then base + 3
  else if Array.unsafe_get words (w + 8) = tag then base + 4
  else if Array.unsafe_get words (w + 10) = tag then base + 5
  else if Array.unsafe_get words (w + 12) = tag then base + 6
  else if Array.unsafe_get words (w + 14) = tag then base + 7
  else -1

let[@inline] find_slot t ~vsid ~page_index =
  let tag = tag_of ~vsid ~page_index in
  let p = hash1 t ~vsid ~page_index in
  let i = find_in_pteg t.words tag (p * slots_per_pteg) in
  if i >= 0 then i
  else find_in_pteg t.words tag (hash2 t ~primary:p * slots_per_pteg)

let[@inline] reference t i =
  let j = (2 * i) + 1 in
  let w1 = t.words.(j) lor r_bit in
  t.words.(j) <- w1;
  w1

let[@inline] rpn w1 = w1 lsr rpn_shift
let[@inline] writable w1 = w1 land 3 = 2
let[@inline] inhibited w1 = w1 land i_bit <> 0
let[@inline] vsid_of_tag w0 = w0 lsr 16

let wimg_bits (w : Pte.wimg) =
  (if w.Pte.write_through then w_bit else 0)
  lor (if w.Pte.cache_inhibited then i_bit else 0)
  lor (if w.Pte.memory_coherent then m_bit else 0)
  lor if w.Pte.guarded then g_bit else 0

let pp_bits = function
  | Pte.Read_write -> 2
  | Pte.Read_only -> 3
  | Pte.No_access -> 0

let decode t i =
  let w0 = t.words.(2 * i) in
  if w0 < 0 then Pte.invalid
  else
    let w1 = t.words.((2 * i) + 1) in
    { Pte.valid = true;
      vsid = vsid_of_tag w0;
      page_index = w0 land 0xFFFF;
      rpn = rpn w1;
      secondary = w1 land h_bit <> 0;
      referenced = w1 land r_bit <> 0;
      changed = w1 land c_bit <> 0;
      wimg =
        { Pte.write_through = w1 land w_bit <> 0;
          cache_inhibited = w1 land i_bit <> 0;
          memory_coherent = w1 land m_bit <> 0;
          guarded = w1 land g_bit <> 0 };
      protection =
        (match w1 land 3 with
        | 2 -> Pte.Read_write
        | 3 -> Pte.Read_only
        | _ -> Pte.No_access) }

(* Slots a search examined, from where it stopped: [k + 1] for a hit in
   slot [k] of the primary PTEG, eight more for the secondary, all 16 on
   a miss.  (With a single PTEG both hashes name it and the first pass
   finds any hit, so a hit is always "primary".) *)
let[@inline] probe_len t ~vsid ~page_index i =
  if i < 0 then 2 * slots_per_pteg
  else
    let slot = i land (slots_per_pteg - 1) in
    if i / slots_per_pteg = hash1 t ~vsid ~page_index then slot + 1
    else slots_per_pteg + slot + 1

(* [find_slot] reporting every slot it read, run by run, for the
   per-slot readers below. *)
let find_slot_per_ref t ~vsid ~page_index ~on_ref =
  let i = find_slot t ~vsid ~page_index in
  let len = probe_len t ~vsid ~page_index i in
  for k = 0 to runs ~len - 1 do
    let pa = run_pa t ~vsid ~page_index k in
    for s = 0 to run_slots ~len k - 1 do
      on_ref (pa + (s * pte_bytes))
    done
  done;
  i

let search t ~vsid ~page_index ~on_ref =
  let i = find_slot_per_ref t ~vsid ~page_index ~on_ref in
  if i < 0 then None else Some (decode t i)

let search_counted t ~vsid ~page_index ~on_ref =
  let i = find_slot_per_ref t ~vsid ~page_index ~on_ref in
  ( (if i < 0 then None else Some (decode t i)),
    probe_len t ~vsid ~page_index i )

type replacement =
  | Arbitrary
  | Second_chance
  | Prefer_zombie of (int -> bool)

(* Find a reusable slot in a PTEG: the flat index of an entry with the
   same tag (update in place), else of the first invalid slot, else -1.
   Reports all eight references. *)
let find_free t ~pteg ~tag ~on_run =
  let base = pteg * slots_per_pteg in
  let free = ref (-1) in
  let same = ref (-1) in
  for i = base to base + slots_per_pteg - 1 do
    let stored = t.words.(2 * i) in
    if stored = tag then same := i
    else if stored < 0 && !free < 0 then free := i
  done;
  iter_runs t ~primary:pteg ~len:slots_per_pteg ~on_run;
  if !same >= 0 then !same else !free

let write_entry t i ~secondary ~vsid ~page_index ~rpn ~wimg ~protection
    ~changed =
  t.words.(2 * i) <-
    tag_of ~vsid:(vsid land 0xFFFFFF) ~page_index:(page_index land 0xFFFF);
  t.words.((2 * i) + 1) <-
    ((rpn land 0xFFFFF) lsl rpn_shift)
    lor (if secondary then h_bit else 0)
    lor r_bit
    lor (if changed then c_bit else 0)
    lor wimg_bits wimg lor pp_bits protection

let arbitrary_victim ~rng ~primary ~secondary =
  let pteg = if Rng.bool rng then secondary else primary in
  (pteg * slots_per_pteg) + Rng.int rng slots_per_pteg

(* The first slot of a PTEG whose R bit is clear, or -1.  Reports all
   eight references. *)
let first_unreferenced t ~pteg ~on_run =
  let base = pteg * slots_per_pteg in
  let found = ref (-1) in
  for i = base to base + slots_per_pteg - 1 do
    if !found < 0 && t.words.((2 * i) + 1) land r_bit = 0 then found := i
  done;
  iter_runs t ~primary:pteg ~len:slots_per_pteg ~on_run;
  !found

let clear_r_bits t ~pteg =
  let base = pteg * slots_per_pteg in
  for i = base to base + slots_per_pteg - 1 do
    t.words.((2 * i) + 1) <- t.words.((2 * i) + 1) land lnot r_bit
  done

(* Second-chance victim selection over the 16 candidate slots: an
   unreferenced entry if one exists, else strip every R bit and choose
   arbitrarily. *)
let pick_victim_second_chance t ~rng ~primary ~secondary ~on_run =
  let i = first_unreferenced t ~pteg:primary ~on_run in
  let i = if i >= 0 then i else first_unreferenced t ~pteg:secondary ~on_run in
  if i >= 0 then i
  else begin
    (* everyone was referenced: second chance for all *)
    clear_r_bits t ~pteg:primary;
    clear_r_bits t ~pteg:secondary;
    arbitrary_victim ~rng ~primary ~secondary
  end

(* The first slot of a PTEG whose VSID [is_zombie] marks dead, or -1.
   Reports references up to and including that slot. *)
let first_zombie t ~is_zombie ~pteg ~on_run =
  let base = pteg * slots_per_pteg in
  let found = ref (-1) in
  for i = base to base + slots_per_pteg - 1 do
    if !found < 0 && is_zombie (vsid_of_tag t.words.(2 * i)) then found := i
  done;
  iter_runs t ~primary:pteg
    ~len:(if !found < 0 then slots_per_pteg else !found - base + 1)
    ~on_run;
  !found

(* Zombie-aware victim selection: the first entry whose VSID the
   predicate marks dead; arbitrary if the 16 candidates are all live. *)
let pick_victim_zombie t ~rng ~is_zombie ~primary ~secondary ~on_run =
  let i = first_zombie t ~is_zombie ~pteg:primary ~on_run in
  let i =
    if i >= 0 then i else first_zombie t ~is_zombie ~pteg:secondary ~on_run
  in
  if i >= 0 then i else arbitrary_victim ~rng ~primary ~secondary

let insert ?(policy = Arbitrary) ?(changed = false) t ~rng ~vsid ~page_index
    ~rpn ~wimg ~protection ~on_run =
  let tag = tag_of ~vsid ~page_index in
  let p = hash1 t ~vsid ~page_index in
  let i = find_free t ~pteg:p ~tag ~on_run in
  if i >= 0 then begin
    write_entry t i ~secondary:false ~vsid ~page_index ~rpn ~wimg ~protection
      ~changed;
    -1
  end
  else begin
    let s = hash2 t ~primary:p in
    let i = find_free t ~pteg:s ~tag ~on_run in
    if i >= 0 then begin
      write_entry t i ~secondary:true ~vsid ~page_index ~rpn ~wimg
        ~protection ~changed;
      -1
    end
    else begin
      (* Both PTEGs full: pick a victim without checking whether its
         VSID is live (the hardware view cannot tell). *)
      let i =
        match policy with
        | Arbitrary -> arbitrary_victim ~rng ~primary:p ~secondary:s
        | Second_chance ->
            pick_victim_second_chance t ~rng ~primary:p ~secondary:s ~on_run
        | Prefer_zombie is_zombie ->
            pick_victim_zombie t ~rng ~is_zombie ~primary:p ~secondary:s
              ~on_run
      in
      let victim = t.words.(2 * i) in
      on_run (slot_pa t i) 1;
      write_entry t i ~secondary:(i / slots_per_pteg = s) ~vsid ~page_index
        ~rpn ~wimg ~protection ~changed;
      victim
    end
  end

let invalidate_page t ~vsid ~page_index ~on_run =
  let i = find_slot t ~vsid ~page_index in
  iter_runs t ~primary:(hash1 t ~vsid ~page_index)
    ~len:(probe_len t ~vsid ~page_index i) ~on_run;
  if i < 0 then false
  else begin
    t.words.(2 * i) <- -1;
    true
  end

(* Runs end at line boundaries, and the table is whole PTEGs, so a run
   never crosses the wrap back to slot 0.  Each run is reported before
   its slots are cleared, which is the slot-by-slot order when
   [per_slot] makes every run a single slot. *)
let reclaim_zombies t ~is_zombie ~max_ptes ~per_slot ~on_run =
  let words = t.words in
  let total = capacity t in
  let reclaimed = ref 0 in
  let i = ref t.cursor in
  let left = ref (min max_ptes total) in
  while !left > 0 do
    let n =
      if per_slot then 1
      else Addr.imin !left (ptes_per_line - (!i land (ptes_per_line - 1)))
    in
    on_run (slot_pa t !i) n;
    for j = !i to !i + n - 1 do
      let w0 = words.(2 * j) in
      if w0 >= 0 && is_zombie (vsid_of_tag w0) then begin
        words.(2 * j) <- -1;
        incr reclaimed
      end
    done;
    left := !left - n;
    i := if !i + n = total then 0 else !i + n
  done;
  t.cursor <- !i;
  !reclaimed

let occupancy t =
  let n = ref 0 in
  for i = 0 to capacity t - 1 do
    if t.words.(2 * i) >= 0 then incr n
  done;
  !n

let count_valid t ~f =
  let n = ref 0 in
  for i = 0 to capacity t - 1 do
    let w0 = t.words.(2 * i) in
    if w0 >= 0 && f (vsid_of_tag w0) then incr n
  done;
  !n

let clear t =
  Array.fill t.words 0 (Array.length t.words) (-1);
  t.cursor <- 0

let histogram t =
  let h = Array.make (slots_per_pteg + 1) 0 in
  for pteg = 0 to t.ptegs - 1 do
    let base = pteg * slots_per_pteg in
    let valid = ref 0 in
    for i = base to base + slots_per_pteg - 1 do
      if t.words.(2 * i) >= 0 then incr valid
    done;
    h.(!valid) <- h.(!valid) + 1
  done;
  h
