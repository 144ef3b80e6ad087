type entry = {
  vpn : Addr.vpn;
  rpn : int;
  inhibited : bool;
  writable : bool;
}

type replacement = Lru | Fifo | Rand

let replacement_name = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Rand -> "random"

(* The store is four parallel flat int arrays rather than an
   [entry option array]: a VPN of -1 marks an invalid way (real VPNs are
   tag-encoded and never negative), [flags] packs the two booleans, and
   [stamps] implements LRU via a global tick.  The layout makes
   [lookup_slot]/[insert_flat] — the MMU's hot path — allocation-free;
   the [entry]-returning functions below are wrappers kept for probing,
   tests and the trace layer. *)
type t = {
  n_sets : int;
  n_ways : int;
  vpns : int array;    (* set-major: slot = set * ways + way; -1 invalid *)
  rpns : int array;
  flags : int array;   (* bit 0 = inhibited, bit 1 = writable *)
  stamps : int array;
  mutable tick : int;
  repl : replacement;
  lru_touch : bool;    (* = (repl = Lru), precomputed for the warm path *)
  mutable rand_state : int;  (* xorshift state for [Rand] victim picks *)
}

let flag_inhibited = 1
let flag_writable = 2

let create ?(replacement = Lru) ~sets ~ways () =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Tlb.create: ways must be positive";
  { n_sets = sets;
    n_ways = ways;
    vpns = Array.make (sets * ways) (-1);
    rpns = Array.make (sets * ways) 0;
    flags = Array.make (sets * ways) 0;
    stamps = Array.make (sets * ways) 0;
    tick = 0;
    repl = replacement;
    lru_touch = replacement = Lru;
    rand_state = 0x2545F49 lxor (sets * ways) }

let replacement t = t.repl

let sets t = t.n_sets
let ways t = t.n_ways
let capacity t = t.n_sets * t.n_ways

let set_of t vpn = vpn land (t.n_sets - 1)

(* --- the flat (allocation-free) interface --------------------------- *)

(* The scans are top-level recursions over explicit arguments, not inner
   [let rec] loops: without flambda an inner loop that captures its
   environment is a fresh heap closure on every call — the very
   allocation this layout exists to avoid. *)

(* [int array] annotations keep the scans monomorphic: unconstrained
   parameters would generalize to ['a array] and compile [=] into a
   [caml_equal] C call per way. *)
let rec scan_vpn (vpns : int array) (vpn : int) base w n =
  if w >= n then -1
  else if vpns.(base + w) = vpn then base + w
  else scan_vpn vpns vpn base (w + 1) n

(* Every TLB in [Machine.all] is 2-way; the unrolled probe saves the
   per-way loop cost on the hottest comparison in the simulator.
   [unsafe_get] is in bounds by construction: [base = set * n_ways] with
   [set < n_sets], so [base + 1 < n_sets * n_ways]. *)
let[@inline always] find_slot t vpn =
  let base = set_of t vpn * t.n_ways in
  if t.n_ways = 2 then
    if Array.unsafe_get t.vpns base = vpn then base
    else if Array.unsafe_get t.vpns (base + 1) = vpn then base + 1
    else -1
  else scan_vpn t.vpns vpn base 0 t.n_ways

let[@inline] lookup_slot t vpn =
  let i = find_slot t vpn in
  if i >= 0 && t.lru_touch then begin
    t.tick <- t.tick + 1;
    t.stamps.(i) <- t.tick
  end;
  i

let peek_slot t vpn = find_slot t vpn

let slot_vpn t i = t.vpns.(i)
let[@inline] slot_rpn t i = t.rpns.(i)
let[@inline] slot_inhibited t i = t.flags.(i) land flag_inhibited <> 0
let[@inline] slot_writable t i = t.flags.(i) land flag_writable <> 0

(* Victim way for an insert: a same-VPN slot (update in place,
   unconditionally preferred), else the first invalid way, else the LRU
   way (strict [<] on stamps, so the first minimal index wins ties).
   Written as a recursion over ints so the scan allocates nothing. *)
let rec victim_scan (vpns : int array) (stamps : int array) (vpn : int) base
    w n victim lru lru_way =
  if w >= n then if victim >= 0 then victim else lru_way
  else begin
    let v = vpns.(base + w) in
    let victim =
      if v = vpn then w else if v < 0 && victim < 0 then w else victim
    in
    let s = stamps.(base + w) in
    if s < lru then victim_scan vpns stamps vpn base (w + 1) n victim s w
    else victim_scan vpns stamps vpn base (w + 1) n victim lru lru_way
  end

(* [victim_scan] unrolled for the 2-way sets every TLB in [Machine.all]
   has.  The same-VPN and first-invalid checks stay branches: on a miss
   stream both ways are valid and neither matches, so they predict well.
   The LRU pick between two valid ways is a coin flip on a random miss
   stream, so it is the arithmetic min of [stamp lsl 1 lor way]: the
   smaller stamp, way 0 winning ties — [victim_scan]'s strict [<].
   In bounds as in [find_slot]. *)
let[@inline] victim2 (vpns : int array) (stamps : int array) (vpn : int) base =
  let v0 = Array.unsafe_get vpns base in
  let v1 = Array.unsafe_get vpns (base + 1) in
  if v1 = vpn then 1
  else if v0 = vpn then 0
  else if v0 < 0 then 0
  else if v1 < 0 then 1
  else
    Addr.imin
      (Array.unsafe_get stamps base lsl 1)
      ((Array.unsafe_get stamps (base + 1) lsl 1) lor 1)
    land 1

(* For [Rand]: the same-VPN / first-invalid preference, with no stamp
   scan behind it. *)
let rec pref_scan (vpns : int array) (vpn : int) base w n inv =
  if w >= n then inv
  else
    let v = vpns.(base + w) in
    if v = vpn then w
    else if v < 0 && inv < 0 then pref_scan vpns vpn base (w + 1) n w
    else pref_scan vpns vpn base (w + 1) n inv

(* Deterministic per-TLB xorshift stream, seeded at [create]: random
   replacement stays reproducible per boot. *)
let next_rand t =
  let s = t.rand_state in
  let s = s lxor ((s lsl 13) land 0x3FFFFFFF) in
  let s = s lxor (s lsr 17) in
  let s = s lxor ((s lsl 5) land 0x3FFFFFFF) in
  t.rand_state <- s;
  s

let[@inline] victim_way t base vpn =
  match t.repl with
  | Lru | Fifo ->
      (* stamps are bumped on every hit under LRU but only on insert
         under FIFO, so one scan serves both orders *)
      if t.n_ways = 2 then victim2 t.vpns t.stamps vpn base
      else victim_scan t.vpns t.stamps vpn base 0 t.n_ways (-1) max_int 0
  | Rand ->
      let w = pref_scan t.vpns vpn base 0 t.n_ways (-1) in
      if w >= 0 then w else next_rand t mod t.n_ways

let[@inline] insert_flat t ~vpn ~rpn ~inhibited ~writable =
  let base = set_of t vpn * t.n_ways in
  let i = base + victim_way t base vpn in
  let old = t.vpns.(i) in
  let displaced = if old = vpn then -1 else old in
  t.tick <- t.tick + 1;
  t.vpns.(i) <- vpn;
  t.rpns.(i) <- rpn;
  t.flags.(i) <-
    (if inhibited then flag_inhibited else 0)
    lor if writable then flag_writable else 0;
  t.stamps.(i) <- t.tick;
  displaced

(* --- the entry-record interface ------------------------------------- *)

let entry_of_slot t i =
  { vpn = t.vpns.(i);
    rpn = t.rpns.(i);
    inhibited = slot_inhibited t i;
    writable = slot_writable t i }

let lookup t vpn =
  let i = lookup_slot t vpn in
  if i < 0 then None else Some (entry_of_slot t i)

let peek t vpn =
  let i = peek_slot t vpn in
  if i < 0 then None else Some (entry_of_slot t i)

let insert_replacing t e =
  let base = set_of t e.vpn * t.n_ways in
  let i = base + victim_way t base e.vpn in
  let displaced =
    if t.vpns.(i) >= 0 && t.vpns.(i) <> e.vpn then Some (entry_of_slot t i)
    else None
  in
  t.tick <- t.tick + 1;
  t.vpns.(i) <- e.vpn;
  t.rpns.(i) <- e.rpn;
  t.flags.(i) <-
    (if e.inhibited then flag_inhibited else 0)
    lor if e.writable then flag_writable else 0;
  t.stamps.(i) <- t.tick;
  displaced

let insert t e =
  ignore
    (insert_flat t ~vpn:e.vpn ~rpn:e.rpn ~inhibited:e.inhibited
       ~writable:e.writable
      : int)

let invalidate_page t vpn =
  let base = set_of t vpn * t.n_ways in
  for w = 0 to t.n_ways - 1 do
    if t.vpns.(base + w) = vpn then t.vpns.(base + w) <- -1
  done

let invalidate_all t = Array.fill t.vpns 0 (Array.length t.vpns) (-1)

let occupancy t =
  let n = ref 0 in
  for i = 0 to Array.length t.vpns - 1 do
    if t.vpns.(i) >= 0 then incr n
  done;
  !n

let count_matching t p =
  let n = ref 0 in
  for i = 0 to Array.length t.vpns - 1 do
    if t.vpns.(i) >= 0 && p t.vpns.(i) then incr n
  done;
  !n

let iter t f =
  for i = 0 to Array.length t.vpns - 1 do
    if t.vpns.(i) >= 0 then f (entry_of_slot t i)
  done
