(* PTE representation and the PTEG hash. *)
open Ppc

let n_ptegs = 2048

let test_make_masks () =
  let pte =
    Pte.make ~vsid:0x1FFFFFF ~page_index:0x1FFFF ~rpn:0x1FFFFF ()
  in
  Alcotest.(check int) "vsid masked to 24 bits" 0xFFFFFF pte.Pte.vsid;
  Alcotest.(check int) "page index masked to 16 bits" 0xFFFF
    pte.Pte.page_index;
  Alcotest.(check int) "rpn masked to 20 bits" 0xFFFFF pte.Pte.rpn;
  Alcotest.(check bool) "valid" true pte.Pte.valid

let test_invalid () =
  let pte = Pte.invalid in
  Alcotest.(check bool) "invalid" false pte.Pte.valid;
  Alcotest.(check bool) "never matches" false
    (Pte.matches pte ~vsid:0 ~page_index:0)

let test_matches () =
  let pte = Pte.make ~vsid:0x42 ~page_index:0x17 ~rpn:3 () in
  Alcotest.(check bool) "matches own tag" true
    (Pte.matches pte ~vsid:0x42 ~page_index:0x17);
  Alcotest.(check bool) "wrong vsid" false
    (Pte.matches pte ~vsid:0x43 ~page_index:0x17);
  Alcotest.(check bool) "wrong page" false
    (Pte.matches pte ~vsid:0x42 ~page_index:0x18)

let test_hash_values () =
  (* hash = (vsid & 0x7FFFF) xor page_index, folded *)
  Alcotest.(check int) "simple xor" (0x123 lxor 0x456)
    (Pte.hash_primary ~n_ptegs ~vsid:0x123 ~page_index:0x456);
  let p = Pte.hash_primary ~n_ptegs ~vsid:0xFFFFF ~page_index:0 in
  Alcotest.(check bool) "in range" true (p >= 0 && p < n_ptegs)

let test_secondary_is_complement () =
  let primary = Pte.hash_primary ~n_ptegs ~vsid:0xBEEF ~page_index:0x123 in
  let secondary = Pte.hash_secondary ~n_ptegs ~primary in
  Alcotest.(check int) "complement under mask"
    (lnot primary land (n_ptegs - 1))
    secondary

let test_wimg () =
  Alcotest.(check bool) "default cacheable" false
    Pte.wimg_default.Pte.cache_inhibited;
  Alcotest.(check bool) "uncached inhibited" true
    Pte.wimg_uncached.Pte.cache_inhibited

let prop_hash_in_range =
  QCheck.Test.make ~name:"primary hash within PTEG count" ~count:1000
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFF))
    (fun (vsid, page_index) ->
      let h = Pte.hash_primary ~n_ptegs ~vsid ~page_index in
      h >= 0 && h < n_ptegs)

let prop_secondary_involution =
  QCheck.Test.make ~name:"secondary of secondary is primary" ~count:1000
    QCheck.(int_bound (n_ptegs - 1))
    (fun primary ->
      let s = Pte.hash_secondary ~n_ptegs ~primary in
      Pte.hash_secondary ~n_ptegs ~primary:s = primary)

let prop_secondary_differs =
  QCheck.Test.make ~name:"secondary PTEG differs from primary" ~count:1000
    QCheck.(int_bound (n_ptegs - 1))
    (fun primary -> Pte.hash_secondary ~n_ptegs ~primary <> primary)

let prop_vpn_consistent =
  QCheck.Test.make ~name:"pte vpn matches its tag" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFF))
    (fun (vsid, page_index) ->
      let pte = Pte.make ~vsid ~page_index ~rpn:0 () in
      let vpn = Pte.vpn pte in
      Addr.vsid_of_vpn vpn = vsid && Addr.page_index_of_vpn vpn = page_index)

let suite =
  [ Alcotest.test_case "field masking" `Quick test_make_masks;
    Alcotest.test_case "invalid entry" `Quick test_invalid;
    Alcotest.test_case "tag matching" `Quick test_matches;
    Alcotest.test_case "hash values" `Quick test_hash_values;
    Alcotest.test_case "secondary complement" `Quick
      test_secondary_is_complement;
    Alcotest.test_case "wimg presets" `Quick test_wimg;
    QCheck_alcotest.to_alcotest prop_hash_in_range;
    QCheck_alcotest.to_alcotest prop_secondary_involution;
    QCheck_alcotest.to_alcotest prop_secondary_differs;
    QCheck_alcotest.to_alcotest prop_vpn_consistent ]
