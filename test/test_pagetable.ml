(* Linux two-level page tables. *)
open Ppc
module Physmem = Kernel_sim.Physmem
module Pagetable = Kernel_sim.Pagetable

let mk () =
  let pm = Physmem.create ~ram_bytes:(8 * 1024 * 1024) ~reserved_bytes:4096 in
  (Pagetable.create ~physmem:pm ~ctx_pa:0x80, pm)

let entry ?(writable = true) rpn =
  Pagetable.pte ~rpn ~writable ~inhibited:false ~shared:false ~cow:false

(* [walk] with its loads collected in order *)
let walk pt ~ea =
  let refs = ref [] in
  let w = Pagetable.walk pt ~ea ~on_ref:(fun pa -> refs := pa :: !refs) in
  (w, Array.of_list (List.rev !refs))

let test_map_find () =
  let pt, pm = mk () in
  Pagetable.map pt ~physmem:pm ~ea:0x01800123 (entry 0x42);
  Alcotest.(check int) "same page" 0x42
    (Pagetable.rpn (Pagetable.find pt ~ea:0x01800FFF));
  Alcotest.(check int) "other page unmapped" Pagetable.unmapped
    (Pagetable.find pt ~ea:0x01801000)

let test_walk_refs () =
  let pt, pm = mk () in
  (* empty: walk touches ctx pointer + pgd entry = 2 loads *)
  let r, refs = walk pt ~ea:0x01800000 in
  Alcotest.(check int) "unmapped" Pagetable.unmapped r;
  Alcotest.(check int) "2 loads when pgd empty" 2 (Array.length refs);
  Alcotest.(check int) "first load is the context" 0x80 refs.(0);
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x1);
  let r, refs = walk pt ~ea:0x01800000 in
  Alcotest.(check int) "mapped" (entry 0x1) r;
  Alcotest.(check int) "3 loads worst case" 3 (Array.length refs);
  (* the pgd entry and pte entry live in distinct frames *)
  Alcotest.(check bool) "distinct frames" true
    (Addr.rpn_of_pa refs.(1) <> Addr.rpn_of_pa refs.(2))

let test_unmap () =
  let pt, pm = mk () in
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x9);
  Alcotest.(check int) "returned entry" (entry 0x9)
    (Pagetable.unmap pt ~ea:0x01800000);
  Alcotest.(check int) "gone" Pagetable.unmapped
    (Pagetable.find pt ~ea:0x01800000);
  Alcotest.(check int) "second unmap none" Pagetable.unmapped
    (Pagetable.unmap pt ~ea:0x01800000);
  Alcotest.(check int) "count zero" 0 (Pagetable.mapped_count pt)

let test_remap_updates () =
  let pt, pm = mk () in
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x1);
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x2);
  Alcotest.(check int) "count stays 1" 1 (Pagetable.mapped_count pt);
  Alcotest.(check int) "updated" (entry 0x2) (Pagetable.find pt ~ea:0x01800000)

let test_iter () =
  let pt, pm = mk () in
  let eas = [ 0x01800000; 0x01801000; 0x40000000; 0x7FFFF000 ] in
  List.iteri
    (fun i ea -> Pagetable.map pt ~physmem:pm ~ea (entry i))
    eas;
  let seen = ref [] in
  Pagetable.iter pt (fun ea _ -> seen := ea :: !seen);
  Alcotest.(check (list int)) "iter visits all page bases"
    (List.sort compare eas)
    (List.sort compare !seen)

let test_destroy_frees_frames () =
  let pt, pm = mk () in
  let before = Physmem.free_frames pm in
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x1);
  Pagetable.map pt ~physmem:pm ~ea:0x40000000 (entry 0x2);
  Alcotest.(check bool) "directory frames consumed" true
    (Physmem.free_frames pm < before);
  Pagetable.destroy pt ~physmem:pm;
  (* +1: the pgd frame allocated at create is also released *)
  Alcotest.(check int) "all directory frames back" (before + 1)
    (Physmem.free_frames pm)

let test_word_fields () =
  let w =
    Pagetable.pte ~rpn:0xABCDE ~writable:true ~inhibited:true ~shared:false
      ~cow:false
  in
  Alcotest.(check int) "rpn" 0xABCDE (Pagetable.rpn w);
  Alcotest.(check (list bool)) "writable, inhibited, shared, cow"
    [ true; true; false; false ]
    Pagetable.[ writable w; inhibited w; shared w; cow w ];
  let c = Pagetable.share_cow w in
  Alcotest.(check (list bool)) "fork's downgrade: read-only, cow"
    [ false; true; false; true ]
    Pagetable.[ writable c; inhibited c; shared c; cow c ];
  Alcotest.(check int) "downgrade keeps the frame" 0xABCDE (Pagetable.rpn c);
  Alcotest.(check int) "breaking cow in place restores the word" w
    (Pagetable.break_cow c ~rpn:(Pagetable.rpn c));
  Alcotest.(check int) "breaking cow onto a copy moves the frame" 0x42
    (Pagetable.rpn (Pagetable.break_cow c ~rpn:0x42))

let test_out_of_frames () =
  let pm = Physmem.create ~ram_bytes:(2 * 4096) ~reserved_bytes:0 in
  let pt = Pagetable.create ~physmem:pm ~ctx_pa:0 in
  (* one frame left: first map consumes it for the pte page *)
  Pagetable.map pt ~physmem:pm ~ea:0 (entry 0x1);
  match Pagetable.map pt ~physmem:pm ~ea:0x00400000 (entry 0x2) with
  | exception Pagetable.Out_of_frames -> ()
  | () -> Alcotest.fail "expected Out_of_frames"

let prop_map_walk_agree =
  QCheck.Test.make ~name:"walk returns exactly what map installed" ~count:100
    QCheck.(
      list_of_size (Gen.return 30)
        (pair (int_bound 0xBFFFF) (int_bound 0xFFFFF)))
    (fun pairs ->
      let pt, pm = mk () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (epn, rpn) ->
          let ea = epn lsl Addr.page_shift in
          Pagetable.map pt ~physmem:pm ~ea (entry rpn);
          Hashtbl.replace model epn rpn)
        pairs;
      Hashtbl.fold
        (fun epn rpn ok ->
          ok
          &&
          Pagetable.walk pt ~ea:(epn lsl Addr.page_shift) ~on_ref:ignore
          = entry rpn)
        model true)

let suite =
  [ Alcotest.test_case "map/find" `Quick test_map_find;
    Alcotest.test_case "walk reference addresses" `Quick test_walk_refs;
    Alcotest.test_case "unmap" `Quick test_unmap;
    Alcotest.test_case "remap updates in place" `Quick test_remap_updates;
    Alcotest.test_case "iter" `Quick test_iter;
    Alcotest.test_case "word fields and cow transitions" `Quick
      test_word_fields;
    Alcotest.test_case "destroy frees directory frames" `Quick
      test_destroy_frees_frames;
    Alcotest.test_case "out of frames" `Quick test_out_of_frames;
    QCheck_alcotest.to_alcotest prop_map_walk_agree ]
