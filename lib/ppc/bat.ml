type entry = {
  mutable valid : bool;
  mutable base_ea : int;
  mutable length : int;
  mutable phys_base : int;
}

(* [segs] has bit [s] set while a valid block lies in segment [s]
   ([Addr.sr_index]): a block is at most 256 MiB and aligned to its
   length, so it lies in exactly one.  [set], [clear] and [clear_all]
   keep it up to date, and an access to any other segment needs no
   probe. *)
type t = {
  entries : entry array;
  mutable segs : int;
}

let n_registers = 4
let min_block = 128 * 1024
let max_block = 256 * 1024 * 1024

let create () =
  { entries =
      Array.init n_registers (fun _ ->
          { valid = false; base_ea = 0; length = 0; phys_base = 0 });
    segs = 0 }

let update_segs t =
  t.segs <-
    Array.fold_left
      (fun m e -> if e.valid then m lor (1 lsl Addr.sr_index e.base_ea) else m)
      0 t.entries

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let set t ~index ~base_ea ~length ~phys_base =
  if index < 0 || index >= n_registers then
    invalid_arg "Bat.set: index out of range";
  if not (is_power_of_two length) || length < min_block || length > max_block
  then invalid_arg "Bat.set: length must be a power of two in [128K, 256M]";
  if base_ea land (length - 1) <> 0 || phys_base land (length - 1) <> 0 then
    invalid_arg "Bat.set: bases must be aligned to the block length";
  let e = t.entries.(index) in
  e.valid <- true;
  e.base_ea <- base_ea;
  e.length <- length;
  e.phys_base <- phys_base;
  update_segs t

let clear t ~index =
  t.entries.(index).valid <- false;
  update_segs t

let clear_all t =
  Array.iter (fun e -> e.valid <- false) t.entries;
  update_segs t

(* Four entries: a linear scan models the parallel compare.  Returns
   the physical address or -1 — the MMU's hit path uses this form so a
   BAT hit builds no option. *)
let[@inline always] entry_match e ea =
  e.valid && ea land lnot (e.length - 1) land Addr.ea_mask = e.base_ea

let[@inline always] entry_pa e ea = e.phys_base lor (ea land (e.length - 1))

(* One test of the segment mask answers an access to a segment no valid
   block touches, the common case on a user access.  Otherwise the four
   probes are unrolled with [unsafe_get]: [entries] always has exactly
   [n_registers] entries ([create] is the only constructor). *)
let[@inline] translate_pa t ea =
  if t.segs land (1 lsl Addr.sr_index ea) = 0 then -1
  else
    let es = t.entries in
    let e = Array.unsafe_get es 0 in
    if entry_match e ea then entry_pa e ea
    else
      let e = Array.unsafe_get es 1 in
      if entry_match e ea then entry_pa e ea
      else
        let e = Array.unsafe_get es 2 in
        if entry_match e ea then entry_pa e ea
        else
          let e = Array.unsafe_get es 3 in
          if entry_match e ea then entry_pa e ea else -1

let translate t ea =
  let pa = translate_pa t ea in
  if pa < 0 then None else Some pa

let covers t ea = translate_pa t ea >= 0

let valid_count t =
  Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) 0 t.entries
