type entry = {
  mutable valid : bool;
  mutable base_ea : int;
  mutable length : int;
  mutable phys_base : int;
}

type t = entry array

let n_registers = 4
let min_block = 128 * 1024
let max_block = 256 * 1024 * 1024

let create () =
  Array.init n_registers (fun _ ->
      { valid = false; base_ea = 0; length = 0; phys_base = 0 })

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let set t ~index ~base_ea ~length ~phys_base =
  if index < 0 || index >= n_registers then
    invalid_arg "Bat.set: index out of range";
  if not (is_power_of_two length) || length < min_block || length > max_block
  then invalid_arg "Bat.set: length must be a power of two in [128K, 256M]";
  if base_ea land (length - 1) <> 0 || phys_base land (length - 1) <> 0 then
    invalid_arg "Bat.set: bases must be aligned to the block length";
  let e = t.(index) in
  e.valid <- true;
  e.base_ea <- base_ea;
  e.length <- length;
  e.phys_base <- phys_base

let clear t ~index = t.(index).valid <- false

let clear_all t = Array.iter (fun e -> e.valid <- false) t

(* Four entries: a linear scan models the parallel compare.  Returns
   the physical address or -1 — the MMU's hit path uses this form so a
   BAT hit builds no option.  Top-level recursion: an inner loop would
   heap-allocate its closure on every translation without flambda. *)
let[@inline always] entry_match e ea =
  e.valid && ea land lnot (e.length - 1) land Addr.ea_mask = e.base_ea

let[@inline always] entry_pa e ea = e.phys_base lor (ea land (e.length - 1))

let rec scan (t : t) ea i =
  if i >= n_registers then -1
  else
    let e = t.(i) in
    if entry_match e ea then entry_pa e ea else scan t ea (i + 1)

(* [t] always has exactly [n_registers] entries ([create] is the only
   constructor), so the four probes are unrolled with [unsafe_get]; the
   common case on a user access is four [valid = false] loads. *)
let[@inline] translate_pa (t : t) ea =
  if Array.length t <> n_registers then scan t ea 0
  else
    let e = Array.unsafe_get t 0 in
    if entry_match e ea then entry_pa e ea
    else
      let e = Array.unsafe_get t 1 in
      if entry_match e ea then entry_pa e ea
      else
        let e = Array.unsafe_get t 2 in
        if entry_match e ea then entry_pa e ea
        else
          let e = Array.unsafe_get t 3 in
          if entry_match e ea then entry_pa e ea else -1

let translate t ea =
  let pa = translate_pa t ea in
  if pa < 0 then None else Some pa

let covers t ea = translate_pa t ea >= 0

let valid_count t =
  Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) 0 t
