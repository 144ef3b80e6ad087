(* Address spaces: vmas, mmap arena, context ids. *)
open Ppc
module Physmem = Kernel_sim.Physmem
module Mm = Kernel_sim.Mm
module V = Kernel_sim.Vsid_alloc

let mk () =
  let pm = Physmem.create ~ram_bytes:(8 * 1024 * 1024) ~reserved_bytes:4096 in
  let v = V.create ~source:V.Context_counter ~multiplier:897 in
  (Mm.create ~physmem:pm ~vsid_alloc:v ~pid:1 (), pm, v)

let vma ?(writable = true) start pages =
  { Mm.va_start = start; va_pages = pages; va_writable = writable;
    va_backing = Mm.Anonymous }

let test_vma_add_find () =
  let mm, _, _ = mk () in
  Mm.add_vma mm (vma 0x01800000 4);
  (match Mm.find_vma mm 0x01802FFF with
  | Some v -> Alcotest.(check int) "found" 0x01800000 v.Mm.va_start
  | None -> Alcotest.fail "expected vma");
  Alcotest.(check bool) "below misses" true
    (Mm.find_vma mm 0x017FFFFF = None);
  Alcotest.(check bool) "past end misses" true
    (Mm.find_vma mm 0x01804000 = None)

let test_vma_overlap_rejected () =
  let mm, _, _ = mk () in
  Mm.add_vma mm (vma 0x01800000 4);
  (match Mm.add_vma mm (vma 0x01802000 4) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlap must be rejected");
  (* adjacent is fine *)
  Mm.add_vma mm (vma 0x01804000 4)

let test_vma_validation () =
  let mm, _, _ = mk () in
  (match Mm.add_vma mm (vma 0x01800001 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unaligned must be rejected");
  match Mm.add_vma mm (vma 0x01800000 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty must be rejected"

let test_remove_vma () =
  let mm, _, _ = mk () in
  Mm.add_vma mm (vma 0x01800000 4);
  (match Mm.remove_vma mm ~start:0x01800000 with
  | Some v -> Alcotest.(check int) "removed" 4 v.Mm.va_pages
  | None -> Alcotest.fail "expected removal");
  Alcotest.(check bool) "gone" true (Mm.find_vma mm 0x01800000 = None);
  Alcotest.(check bool) "remove again none" true
    (Mm.remove_vma mm ~start:0x01800000 = None)

let test_mmap_arena () =
  let mm, _, _ = mk () in
  let a = Mm.alloc_mmap_range mm ~pages:4 in
  let b = Mm.alloc_mmap_range mm ~pages:8 in
  Alcotest.(check int) "arena base" Mm.user_mmap_base a;
  Alcotest.(check int) "bump allocated" (a + (4 * Addr.page_size)) b;
  Mm.reset_vmas mm;
  Alcotest.(check int) "reset rewinds arena" Mm.user_mmap_base
    (Mm.alloc_mmap_range mm ~pages:1)

let test_grow_vma () =
  let mm, _, _ = mk () in
  Mm.add_vma mm (vma 0x01800000 4);
  let grown = Mm.grow_vma mm ~start:0x01800000 ~extra_pages:2 in
  Alcotest.(check int) "six pages now" 6 grown.Mm.va_pages;
  Alcotest.(check bool) "new tail addressable" true
    (Mm.find_vma mm 0x01805FFF <> None);
  (* growing into a neighbour is refused *)
  Mm.add_vma mm (vma 0x01806000 2);
  (match Mm.grow_vma mm ~start:0x01800000 ~extra_pages:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlap growth must fail");
  match Mm.grow_vma mm ~start:0x09999000 ~extra_pages:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "growing a missing vma must fail"

let test_vsids () =
  let mm, _, v = mk () in
  let s0 = Mm.vsid_for_sr mm ~vsid_alloc:v 0 in
  let s1 = Mm.vsid_for_sr mm ~vsid_alloc:v 1 in
  Alcotest.(check bool) "distinct per segment" true (s0 <> s1);
  Alcotest.(check bool) "live" true (V.is_live v s0);
  let old_ctx = Mm.ctx mm in
  Mm.set_ctx mm (V.renew_context v ~old_ctx ~pid:(Mm.pid mm));
  Alcotest.(check bool) "old vsid now zombie" true (V.is_zombie v s0);
  Alcotest.(check bool) "new vsid differs" true
    (Mm.vsid_for_sr mm ~vsid_alloc:v 0 <> s0)

let test_destroy () =
  let pm = Physmem.create ~ram_bytes:(8 * 1024 * 1024) ~reserved_bytes:4096 in
  let v = V.create ~source:V.Context_counter ~multiplier:897 in
  let before = Physmem.free_frames pm in
  let mm = Mm.create ~physmem:pm ~vsid_alloc:v ~pid:1 () in
  let pt = Mm.pagetable mm in
  let frame = Option.get (Physmem.alloc pm) in
  Kernel_sim.Pagetable.map pt ~physmem:pm ~ea:0x01800000
    (Kernel_sim.Pagetable.pte ~rpn:frame ~writable:true ~inhibited:false
       ~shared:false ~cow:false);
  let freed = ref [] in
  Mm.destroy mm ~physmem:pm ~vsid_alloc:v ~free_frame:(fun rpn ->
      freed := rpn :: !freed;
      Physmem.free pm rpn);
  Alcotest.(check (list int)) "mapped frame released" [ frame ] !freed;
  Alcotest.(check int) "all frames back" before (Physmem.free_frames pm);
  Alcotest.(check int) "context retired" 0 (V.live_contexts v)

let suite =
  [ Alcotest.test_case "vma add/find" `Quick test_vma_add_find;
    Alcotest.test_case "overlap rejected" `Quick test_vma_overlap_rejected;
    Alcotest.test_case "vma validation" `Quick test_vma_validation;
    Alcotest.test_case "remove vma" `Quick test_remove_vma;
    Alcotest.test_case "mmap arena" `Quick test_mmap_arena;
    Alcotest.test_case "grow vma (brk)" `Quick test_grow_vma;
    Alcotest.test_case "per-segment vsids and renew" `Quick test_vsids;
    Alcotest.test_case "destroy releases everything" `Quick test_destroy ]
