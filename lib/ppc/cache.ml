type source =
  | User
  | Kernel
  | Page_table
  | Htab
  | Idle_clear

let n_sources = 5

let source_index = function
  | User -> 0
  | Kernel -> 1
  | Page_table -> 2
  | Htab -> 3
  | Idle_clear -> 4

type result =
  | Hit
  | Miss of { dirty_writeback : bool }
  | Bypass

type t = {
  n_sets : int;
  n_ways : int;
  tags : int array;    (* line index, or -1 when invalid *)
  dirty : bool array;
  stamps : int array;
  mutable tick : int;
  mutable locked : bool;
  allocs : int array;      (* per source *)
  evictions : int array;   (* per source *)
}

let create ~bytes ~ways =
  let lines = bytes / Addr.line_size in
  if lines mod ways <> 0 then invalid_arg "Cache.create: geometry";
  let sets = lines / ways in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  { n_sets = sets;
    n_ways = ways;
    tags = Array.make lines (-1);
    dirty = Array.make lines false;
    stamps = Array.make lines 0;
    tick = 0;
    locked = false;
    allocs = Array.make n_sources 0;
    evictions = Array.make n_sources 0 }

let capacity_lines t = t.n_sets * t.n_ways

let set_of t line = line land (t.n_sets - 1)

(* The set scans are top-level int recursions — no refs, no returned
   tuple, and no inner [let rec] (which would heap-allocate a closure
   per call without flambda) — so a hit allocates nothing. *)

(* The [int array] annotations matter: an unconstrained [tags] would
   generalize these scans to ['a array], turning every [=] into a
   [caml_equal] C call and every [unsafe_get] into a float-array check. *)
let rec tag_scan (tags : int array) (line : int) base w n =
  if w >= n then -1
  else if tags.(base + w) = line then base + w
  else tag_scan tags line base (w + 1) n

(* Unrolled 4-way probe.  [unsafe_get] is justified by construction:
   callers pass [base = set * n_ways] with [set < n_sets], so
   [base + 3 < n_sets * n_ways = Array.length tags].  Unrolling matters:
   even as a tail call the generic scan costs several ns per way, and
   every simulated memory reference lands here. *)
let[@inline always] scan4 (tags : int array) base (line : int) =
  if Array.unsafe_get tags base = line then base
  else if Array.unsafe_get tags (base + 1) = line then base + 1
  else if Array.unsafe_get tags (base + 2) = line then base + 2
  else if Array.unsafe_get tags (base + 3) = line then base + 3
  else -1

(* Flat slot index of the hit, or -1.  Every machine in [Machine.all]
   has a 4- or 8-way cache; anything else takes the generic scan. *)
let[@inline] hit_slot t base line =
  match t.n_ways with
  | 4 -> scan4 t.tags base line
  | 8 ->
      let i = scan4 t.tags base line in
      if i >= 0 then i else scan4 t.tags (base + 4) line
  | n -> tag_scan t.tags line base 0 n

(* Way to fill on a miss: the first free way, else the LRU way (strict
   [<] on stamps, first minimal index wins). *)
let rec fill_scan (tags : int array) (stamps : int array) base w n free lru
    lru_way =
  if w >= n then if free >= 0 then free else lru_way
  else begin
    let free = if free < 0 && tags.(base + w) < 0 then w else free in
    let s = stamps.(base + w) in
    if s < lru then fill_scan tags stamps base (w + 1) n free s w
    else fill_scan tags stamps base (w + 1) n free lru lru_way
  end

(* [fill_scan]'s choice without data-dependent branches, for the 4- and
   8-way sets of every cache in [Machine.all]: each way gets the key
   [stamp lsl 3 lor way] when valid and plain [way] when invalid (the
   mask is zero for a -1 tag), and the minimal key's low bits name the
   way.  Valid stamps are >= 1 — the tick is bumped before any fill — so
   every invalid key sorts below every valid one: the first free way,
   else the smallest stamp, the lowest index winning ties.  In bounds as
   in [scan4]. *)
let[@inline always] fill_key (tags : int array) (stamps : int array) base w =
  let valid = lnot (Array.unsafe_get tags (base + w) asr (Sys.int_size - 1)) in
  ((Array.unsafe_get stamps (base + w) lsl 3) land valid) lor w

let[@inline always] min_key4 tags stamps base w =
  Addr.imin
    (Addr.imin
       (fill_key tags stamps base w)
       (fill_key tags stamps base (w + 1)))
    (Addr.imin
       (fill_key tags stamps base (w + 2))
       (fill_key tags stamps base (w + 3)))

let[@inline] fill_way t base =
  match t.n_ways with
  | 4 -> min_key4 t.tags t.stamps base 0 land 7
  | 8 ->
      Addr.imin
        (min_key4 t.tags t.stamps base 0)
        (min_key4 t.tags t.stamps base 4)
      land 7
  | n -> fill_scan t.tags t.stamps base 0 n (-1) max_int 0

(* The two possible fill results, built once: a miss allocates nothing. *)
let miss_clean = Miss { dirty_writeback = false }
let miss_dirty = Miss { dirty_writeback = true }

let[@inline] fill t ~source ~write i line =
  let src = source_index source in
  let dirty_writeback = t.tags.(i) >= 0 && t.dirty.(i) in
  if t.tags.(i) >= 0 then t.evictions.(src) <- t.evictions.(src) + 1;
  t.tags.(i) <- line;
  t.dirty.(i) <- write;
  t.stamps.(i) <- t.tick;
  t.allocs.(src) <- t.allocs.(src) + 1;
  if dirty_writeback then miss_dirty else miss_clean

(* The miss half of a reference, out of line so that [access] inlines
   into its callers as the probe and two stores of a hit. *)
let[@inline never] miss t ~source ~write base line =
  if t.locked then Bypass
  else fill t ~source ~write (base + fill_way t base) line

(* [n] references to one line: one set lookup, and the first
   reference's result decides the rest.  Nothing between them can evict
   the line, so a hit or a fill leaves [n - 1] hits and a locked miss
   [n - 1] more locked misses; the tick advances by [n], and the stamp a
   fill or hit writes is the last of the [n] ticks, where [n] calls
   leave it. *)
let[@inline] access_run t ~source ~inhibited ~write pa n =
  if inhibited then Bypass
  else begin
    let line = Addr.line_index pa in
    let base = set_of t line * t.n_ways in
    let i = hit_slot t base line in
    t.tick <- t.tick + n;
    if i >= 0 then begin
      t.stamps.(i) <- t.tick;
      if write then t.dirty.(i) <- true;
      Hit
    end
    else miss t ~source ~write base line
  end

let[@inline] access t ~source ~inhibited ~write pa =
  access_run t ~source ~inhibited ~write pa 1

let allocate_zero t ~source pa =
  let line = Addr.line_index pa in
  let base = set_of t line * t.n_ways in
  let i = hit_slot t base line in
  t.tick <- t.tick + 1;
  if i >= 0 then begin
    t.stamps.(i) <- t.tick;
    t.dirty.(i) <- true;
    Hit
  end
  else miss t ~source ~write:true base line

(* Unlocked, every line of a clear ends resident, dirty and stamped with
   its own tick; a fill takes [fill_way]'s victim, as [fill] would.  The
   loop keeps the arrays, tick and counters in locals and builds no
   result per line.  [unsafe_*] are in bounds as in [scan4]: [i] is a
   way of the set at [base].  A locked cache takes the per-line path. *)
let zero_lines t ~source pa ~lines =
  let to_memory = ref 0 in
  if t.locked then
    for k = 0 to lines - 1 do
      match allocate_zero t ~source (pa + (k * Addr.line_size)) with
      | Bypass -> incr to_memory
      | Hit | Miss _ -> ()
    done
  else begin
    let line0 = Addr.line_index pa in
    let tags = t.tags and dirty = t.dirty and stamps = t.stamps in
    let fills = ref 0 and evictions = ref 0 and tick = ref t.tick in
    for k = 0 to lines - 1 do
      let line = line0 + k in
      let base = set_of t line * t.n_ways in
      let i = hit_slot t base line in
      let i =
        if i >= 0 then i
        else begin
          let i = base + fill_way t base in
          if Array.unsafe_get tags i >= 0 then begin
            incr evictions;
            if Array.unsafe_get dirty i then incr to_memory
          end;
          incr fills;
          Array.unsafe_set tags i line;
          i
        end
      in
      tick := !tick + 1;
      Array.unsafe_set dirty i true;
      Array.unsafe_set stamps i !tick
    done;
    t.tick <- !tick;
    let src = source_index source in
    t.allocs.(src) <- t.allocs.(src) + !fills;
    t.evictions.(src) <- t.evictions.(src) + !evictions
  end;
  !to_memory

let contains t pa =
  let line = Addr.line_index pa in
  let base = set_of t line * t.n_ways in
  let rec loop w =
    if w >= t.n_ways then false
    else if t.tags.(base + w) = line then true
    else loop (w + 1)
  in
  loop 0

let set_locked t b = t.locked <- b
let is_locked t = t.locked

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false

let occupancy t =
  Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 t.tags

let dirty_lines t =
  let n = ref 0 in
  Array.iteri (fun i tag -> if tag >= 0 && t.dirty.(i) then incr n) t.tags;
  !n

let stats_allocations t source = t.allocs.(source_index source)
let stats_evictions_caused_by t source = t.evictions.(source_index source)
