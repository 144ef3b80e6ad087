open Ppc

exception Out_of_frames

(* A PTE word: -1, or [rpn lsl 4 lor writable lor inhibited lor shared
   lor cow] (see the interface). *)
let unmapped = -1
let cow_bit = 1
let shared_bit = 2
let inhibited_bit = 4
let writable_bit = 8
let rpn_shift = 4

let[@inline] bit b v = if b then v else 0

let pte ~rpn ~writable ~inhibited ~shared ~cow =
  (rpn lsl rpn_shift)
  lor bit writable writable_bit
  lor bit inhibited inhibited_bit
  lor bit shared shared_bit
  lor bit cow cow_bit

let[@inline] rpn w = w lsr rpn_shift
let[@inline] writable w = w land writable_bit <> 0
let[@inline] inhibited w = w land inhibited_bit <> 0
let[@inline] shared w = w land shared_bit <> 0
let[@inline] cow w = w land cow_bit <> 0
let share_cow w = (w land lnot writable_bit) lor cow_bit

let break_cow w ~rpn =
  (rpn lsl rpn_shift)
  lor (w land (inhibited_bit lor shared_bit))
  lor writable_bit

(* A PTE page holds its 1024 words, or, while it is linear, none:
   slot [j] of a linear page maps [first + j lsl rpn_shift] for
   [j < slots] and nothing above.  The first store into a linear page
   materializes its words. *)
type pte_page = {
  frame : int;                (* physical frame holding this table *)
  mutable words : int array;  (* 1024 PTE words; [||] while linear *)
  first : int;                (* a linear page's slot-0 word *)
  slots : int;                (* a linear page maps slots [0, slots) *)
}

type t = {
  ctx_pa : Addr.pa;
  pgd_frame : int;
  pgd : pte_page array; (* 1024 pgd slots, [no_page] when empty *)
  mutable mapped : int;
}

let entries_per_table = 1024
let pte_entry_bytes = 4
let no_page = { frame = -1; words = [||]; first = unmapped; slots = 0 }

let pgd_index ea = (ea lsr 22) land 0x3FF
let pte_index ea = (ea lsr Addr.page_shift) land 0x3FF

let[@inline] word page j =
  if Array.length page.words > 0 then page.words.(j)
  else if j < page.slots then page.first + (j lsl rpn_shift)
  else unmapped

let set page j w =
  if Array.length page.words = 0 then
    page.words <- Array.init entries_per_table (fun j -> word page j);
  page.words.(j) <- w

let alloc_frame physmem =
  match Physmem.alloc physmem with
  | Some rpn -> rpn
  | None -> raise Out_of_frames

let create ~physmem ~ctx_pa =
  { ctx_pa;
    pgd_frame = alloc_frame physmem;
    pgd = Array.make entries_per_table no_page;
    mapped = 0 }

let pgd_rpn t = t.pgd_frame

let map t ~physmem ~ea w =
  let i = pgd_index ea in
  let page =
    let page = t.pgd.(i) in
    if page != no_page then page
    else begin
      let page =
        { frame = alloc_frame physmem;
          words = Array.make entries_per_table unmapped;
          first = unmapped;
          slots = 0 }
      in
      t.pgd.(i) <- page;
      page
    end
  in
  let j = pte_index ea in
  if word page j = unmapped then t.mapped <- t.mapped + 1;
  set page j w

let rec map_linear t ~physmem ~ea w ~pages =
  if pages > 0 then begin
    let i = pgd_index ea in
    if pte_index ea <> 0 || t.pgd.(i) != no_page then
      invalid_arg "Pagetable.map_linear: not an empty PTE page";
    let slots = min pages entries_per_table in
    t.pgd.(i) <-
      { frame = alloc_frame physmem; words = [||]; first = w; slots };
    t.mapped <- t.mapped + slots;
    map_linear t ~physmem
      ~ea:(ea + (slots lsl Addr.page_shift))
      (w + (slots lsl rpn_shift))
      ~pages:(pages - slots)
  end

let unmap t ~ea =
  let page = t.pgd.(pgd_index ea) in
  if page == no_page then unmapped
  else begin
    let j = pte_index ea in
    let w = word page j in
    if w <> unmapped then begin
      set page j unmapped;
      t.mapped <- t.mapped - 1
    end;
    w
  end

let find t ~ea =
  let page = t.pgd.(pgd_index ea) in
  if page == no_page then unmapped else word page (pte_index ea)

(* The three loads of §6.1: the pgd pointer in the context structure,
   the pgd entry, and (when the pgd entry is present) the PTE. *)
let walk t ~ea ~on_ref =
  let i = pgd_index ea in
  on_ref t.ctx_pa;
  on_ref ((t.pgd_frame lsl Addr.page_shift) + (i * pte_entry_bytes));
  let page = t.pgd.(i) in
  if page == no_page then unmapped
  else begin
    let j = pte_index ea in
    on_ref ((page.frame lsl Addr.page_shift) + (j * pte_entry_bytes));
    word page j
  end

let mapped_count t = t.mapped

let page_ea i j = (i lsl 22) lor (j lsl Addr.page_shift)

let iter t f =
  for i = 0 to entries_per_table - 1 do
    let page = t.pgd.(i) in
    if page != no_page then
      for j = 0 to entries_per_table - 1 do
        let w = word page j in
        if w <> unmapped then f (page_ea i j) w
      done
  done

let unmap_all t f =
  for i = entries_per_table - 1 downto 0 do
    let page = t.pgd.(i) in
    if page != no_page then
      for j = entries_per_table - 1 downto 0 do
        let w = word page j in
        if w <> unmapped then begin
          set page j unmapped;
          t.mapped <- t.mapped - 1;
          f w
        end
      done
  done

let destroy t ~physmem =
  for i = 0 to entries_per_table - 1 do
    let page = t.pgd.(i) in
    if page != no_page then begin
      Physmem.free physmem page.frame;
      t.pgd.(i) <- no_page
    end
  done;
  Physmem.free physmem t.pgd_frame;
  t.mapped <- 0
