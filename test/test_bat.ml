(* Block address translation registers. *)
open Ppc

let test_empty () =
  let b = Bat.create () in
  Alcotest.(check (option int)) "no match" None (Bat.translate b 0xC0000000);
  Alcotest.(check int) "no valid entries" 0 (Bat.valid_count b)

let test_basic_translate () =
  let b = Bat.create () in
  Bat.set b ~index:0 ~base_ea:0xC0000000 ~length:(4 * 1024 * 1024)
    ~phys_base:0;
  Alcotest.(check (option int)) "base" (Some 0) (Bat.translate b 0xC0000000);
  Alcotest.(check (option int)) "interior" (Some 0x123456)
    (Bat.translate b 0xC0123456);
  Alcotest.(check (option int)) "last byte"
    (Some 0x3FFFFF)
    (Bat.translate b 0xC03FFFFF);
  Alcotest.(check (option int)) "past end" None (Bat.translate b 0xC0400000);
  Alcotest.(check (option int)) "below" None (Bat.translate b 0xBFFFFFFF)

let test_nonzero_phys () =
  let b = Bat.create () in
  Bat.set b ~index:1 ~base_ea:0xF0000000 ~length:(128 * 1024)
    ~phys_base:0x10000000;
  Alcotest.(check (option int)) "offset preserved" (Some 0x10000ABC)
    (Bat.translate b 0xF0000ABC)

let test_validation () =
  let b = Bat.create () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "too small" true
    (raises (fun () ->
         Bat.set b ~index:0 ~base_ea:0 ~length:(64 * 1024) ~phys_base:0));
  Alcotest.(check bool) "not power of two" true
    (raises (fun () ->
         Bat.set b ~index:0 ~base_ea:0 ~length:(3 * 128 * 1024) ~phys_base:0));
  Alcotest.(check bool) "misaligned base" true
    (raises (fun () ->
         Bat.set b ~index:0 ~base_ea:0x10000 ~length:(128 * 1024)
           ~phys_base:0));
  Alcotest.(check bool) "bad index" true
    (raises (fun () ->
         Bat.set b ~index:4 ~base_ea:0 ~length:(128 * 1024) ~phys_base:0))

let test_clear () =
  let b = Bat.create () in
  Bat.set b ~index:0 ~base_ea:0 ~length:(128 * 1024) ~phys_base:0;
  Alcotest.(check int) "one valid" 1 (Bat.valid_count b);
  Bat.clear b ~index:0;
  Alcotest.(check (option int)) "cleared" None (Bat.translate b 0);
  Bat.set b ~index:0 ~base_ea:0 ~length:(128 * 1024) ~phys_base:0;
  Bat.set b ~index:3 ~base_ea:0x80000000 ~length:(128 * 1024) ~phys_base:0;
  Bat.clear_all b;
  Alcotest.(check int) "all cleared" 0 (Bat.valid_count b)

let test_covers () =
  let b = Bat.create () in
  Bat.set b ~index:2 ~base_ea:0xC0000000 ~length:(32 * 1024 * 1024)
    ~phys_base:0;
  Alcotest.(check bool) "covers kernel" true (Bat.covers b 0xC1FFFFFF);
  Alcotest.(check bool) "not user" false (Bat.covers b 0x01800000)

let prop_offset_preserved =
  QCheck.Test.make ~name:"bat preserves offset within block" ~count:500
    QCheck.(int_bound (128 * 1024 - 1))
    (fun off ->
      let b = Bat.create () in
      Bat.set b ~index:0 ~base_ea:0xC0000000 ~length:(128 * 1024)
        ~phys_base:0x01000000;
      Bat.translate b (0xC0000000 + off) = Some (0x01000000 + off))

(* The segment mask must only ever skip the probe: over random
   sequences of [set], [clear] and [clear_all], [translate_pa] answers
   exactly as a plain scan of the four registers does.  Blocks land in
   any segment, so a segment often holds two and a [clear] must keep the
   other's bit; every sequence starts with the X server's frame-buffer
   block, 4 MiB in a user segment, as [Kernel] programs it. *)
type bat_op =
  | Set of { index : int; seg : int; shift : int; slot : int; phys : int }
  | Clear of int
  | Clear_all

let print_bat_op = function
  | Set { index; seg; shift; slot; phys } ->
      Printf.sprintf "set %d seg %d len 2^%d slot %d phys %d" index seg shift
        slot phys
  | Clear i -> Printf.sprintf "clear %d" i
  | Clear_all -> "clear_all"

let gen_bat_op =
  QCheck.Gen.(
    frequency
      [ ( 6,
          map
            (fun (index, seg, shift, (slot, phys)) ->
              Set { index; seg; shift; slot; phys })
            (quad (int_bound 3) (int_bound 15) (int_range 17 28)
               (pair (int_bound 3) (int_bound 7))) );
        (3, map (fun i -> Clear i) (int_bound 3));
        (1, return Clear_all) ])

(* a block's base: one of the first four of its length in the segment *)
let block_base ~seg ~shift ~slot =
  (seg lsl 28) + ((slot lsl shift) land ((1 lsl 28) - 1))

let prop_mask_matches_scan =
  QCheck.Test.make ~name:"masked translate_pa == four-entry scan" ~count:300
    QCheck.(
      make
        ~print:(fun (ops, _) -> String.concat "; " (List.map print_bat_op ops))
        Gen.(pair (list_size (int_range 1 30) gen_bat_op) (int_bound 1000)))
    (fun (ops, salt) ->
      let b = Bat.create () in
      let model = Array.make Bat.n_registers None in
      let scan ea =
        let ea = ea land Addr.ea_mask in
        Array.fold_left
          (fun acc r ->
            match (acc, r) with
            | -1, Some (base, length, phys)
              when ea land lnot (length - 1) = base ->
                phys lor (ea land (length - 1))
            | _ -> acc)
          (-1) model
      in
      let apply = function
        | Set { index; seg; shift; slot; phys } ->
            let length = 1 lsl shift in
            let base = block_base ~seg ~shift ~slot in
            let phys = (phys lsl shift) land 0xFFFFFFFF in
            Bat.set b ~index ~base_ea:base ~length ~phys_base:phys;
            model.(index) <- Some (base, length, phys)
        | Clear i ->
            Bat.clear b ~index:i;
            model.(i) <- None
        | Clear_all ->
            Bat.clear_all b;
            Array.fill model 0 Bat.n_registers None
      in
      (* addresses in and around every block ever set, and a spread over
         all sixteen segments *)
      let probes = ref [] in
      let note = function
        | Set { seg; shift; slot; _ } ->
            let base = block_base ~seg ~shift ~slot and length = 1 lsl shift in
            probes :=
              base :: (base + length - 1) :: (base + length) :: (base - 1)
              :: (base + ((salt * 4099) land (length - 1)))
              :: !probes
        | Clear _ | Clear_all -> ()
      in
      let spread =
        List.init 64 (fun i -> ((i land 15) lsl 28) + (((i * salt) + i) lsl 12))
      in
      let fb_ea = Kernel_sim.Mm.framebuffer_base in
      let fb =
        Set
          { index = 2;
            seg = Addr.sr_index fb_ea;
            shift = 22;
            slot = (fb_ea land ((1 lsl 28) - 1)) lsr 22;
            phys = 0x0800_0000 lsr 22 }
      in
      List.for_all
        (fun op ->
          apply op;
          note op;
          List.for_all
            (fun ea -> Bat.translate_pa b ea = scan ea)
            (spread @ !probes))
        (fb :: ops))

let suite =
  [ Alcotest.test_case "empty bank" `Quick test_empty;
    Alcotest.test_case "basic translate" `Quick test_basic_translate;
    Alcotest.test_case "nonzero phys base" `Quick test_nonzero_phys;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "covers" `Quick test_covers;
    QCheck_alcotest.to_alcotest prop_offset_preserved;
    QCheck_alcotest.to_alcotest prop_mask_matches_scan ]
