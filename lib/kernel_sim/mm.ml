open Ppc

type backing =
  | Anonymous
  | File_pages of Vfs.file * int
  | Phys_window of int

type vma = {
  va_start : Addr.ea;
  va_pages : int;
  va_writable : bool;
  va_backing : backing;
}

type t = {
  mm_pid : int;
  mutable mm_ctx : int;
  pt : Pagetable.t;
  mutable mm_vmas : vma list;
  mutable mmap_cursor : Addr.ea;
  (* bitmask of CPUs this address space has run on — the conservative
     shootdown target set, like Linux's mm_cpumask; never narrowed *)
  mutable mm_cpumask : int;
}

let user_text_base = 0x01800000
let user_mmap_base = 0x40000000
let user_stack_top = 0x80000000
let framebuffer_base = 0x60000000
let framebuffer_bytes = 4 * 1024 * 1024
let framebuffer_end = framebuffer_base + framebuffer_bytes

let create ~physmem ~vsid_alloc ~pid () =
  let ctx = Vsid_alloc.new_context vsid_alloc ~pid in
  let ctx_pa =
    Kparams.kernel_phys_of_virt (Kparams.task_struct_ea ~pid)
  in
  { mm_pid = pid;
    mm_ctx = ctx;
    pt = Pagetable.create ~physmem ~ctx_pa;
    mm_vmas = [];
    mmap_cursor = user_mmap_base;
    mm_cpumask = 0 }

let pid t = t.mm_pid
let ctx t = t.mm_ctx
let set_ctx t ctx = t.mm_ctx <- ctx

let cpumask t = t.mm_cpumask
let note_running t ~cpu = t.mm_cpumask <- t.mm_cpumask lor (1 lsl cpu)

let vsid_for_sr t ~vsid_alloc sr = Vsid_alloc.vsid vsid_alloc ~ctx:t.mm_ctx ~sr

let pagetable t = t.pt

let vma_end v = v.va_start + (v.va_pages lsl Addr.page_shift)

let overlaps a b = a.va_start < vma_end b && b.va_start < vma_end a

let add_vma t v =
  if not (Addr.is_page_aligned v.va_start) || v.va_pages <= 0 then
    invalid_arg "Mm.add_vma: malformed vma";
  if List.exists (overlaps v) t.mm_vmas then
    invalid_arg "Mm.add_vma: overlapping vma";
  t.mm_vmas <- v :: t.mm_vmas

let remove_vma t ~start =
  match List.partition (fun v -> v.va_start = start) t.mm_vmas with
  | [], _ -> None
  | v :: _, rest ->
      t.mm_vmas <- rest;
      Some v

let grow_vma t ~start ~extra_pages =
  if extra_pages <= 0 then invalid_arg "Mm.grow_vma: extra_pages";
  match List.partition (fun v -> v.va_start = start) t.mm_vmas with
  | [], _ -> invalid_arg "Mm.grow_vma: no vma at address"
  | v :: _, rest ->
      let grown = { v with va_pages = v.va_pages + extra_pages } in
      if List.exists (overlaps grown) rest then
        invalid_arg "Mm.grow_vma: growth would overlap";
      t.mm_vmas <- grown :: rest;
      grown

(* A top-level scan rather than [List.find_opt] over a closure that
   captures [ea]: that closure was allocated on every call, and this
   runs on every [user_run] and every fault. *)
let rec find_vma_in ea = function
  | [] -> None
  | v :: rest ->
      if ea >= v.va_start && ea < vma_end v then Some v
      else find_vma_in ea rest

let find_vma t ea = find_vma_in ea t.mm_vmas

let vmas t = t.mm_vmas

let range_free t ~ea ~pages =
  let len = pages lsl Addr.page_shift in
  List.for_all (fun v -> ea >= vma_end v || v.va_start >= ea + len) t.mm_vmas

(* Bump the cursor while the range there is free, stepping over the
   frame-buffer aperture, which is taken whether or not it is mapped.
   munmap gives no address space back to the cursor, so when its range
   would overlap a vma or pass the stack top, take the lowest free range
   at or above [user_mmap_base] instead: first fit over the ends of the
   vmas and of the aperture. *)
let alloc_mmap_range t ~pages =
  if pages <= 0 then invalid_arg "Mm.alloc_mmap_range: pages";
  let len = pages lsl Addr.page_shift in
  let clear_of_aperture ea =
    ea >= framebuffer_end || ea + len <= framebuffer_base
  in
  let fits ea =
    ea >= user_mmap_base
    && ea + len <= user_stack_top
    && clear_of_aperture ea
    && range_free t ~ea ~pages
  in
  let cursor =
    if clear_of_aperture t.mmap_cursor then t.mmap_cursor else framebuffer_end
  in
  let ea =
    if fits cursor then cursor
    else
      let starts =
        user_mmap_base :: framebuffer_end :: List.map vma_end t.mm_vmas
      in
      match List.find_opt fits (List.sort compare starts) with
      | Some ea -> ea
      | None -> invalid_arg "Mm.alloc_mmap_range: mmap window full"
  in
  t.mmap_cursor <- ea + len;
  ea

let reset_vmas t =
  t.mm_vmas <- [];
  t.mmap_cursor <- user_mmap_base

let mapped_pages t = Pagetable.mapped_count t.pt

let destroy t ~physmem ~vsid_alloc ~free_frame =
  Pagetable.iter t.pt (fun _ea w -> free_frame (Pagetable.rpn w));
  Pagetable.destroy t.pt ~physmem;
  Vsid_alloc.retire_context vsid_alloc t.mm_ctx;
  t.mm_vmas <- []
