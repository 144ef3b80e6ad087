(* The first-class policy layer: knob catalog, string/JSON codecs, and
   the proof that [paper_default] carries exactly the constants that
   were extracted out of the mechanism modules. *)

module Policy = Mmu_tricks.Policy
module Config = Mmu_tricks.Config
module Json = Mmu_tricks.Json
module Kpolicy = Kernel_sim.Policy
module Vsid_alloc = Kernel_sim.Vsid_alloc

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected Error: " ^ e)

let expect_error name = function
  | Ok _ -> Alcotest.fail (name ^ ": expected Error")
  | Error e ->
      Alcotest.(check bool) (name ^ " has a message") true
        (String.length e > 0)

(* --- paper_default is the extracted constants ----------------------- *)

let test_paper_default_constants () =
  let p = Policy.paper_default in
  Alcotest.(check bool) "paper_default is Kernel_sim.Policy.optimized" true
    (Policy.equal p Kpolicy.optimized);
  Alcotest.(check int) "vsid multiplier is the tuned 897"
    Vsid_alloc.scatter_multiplier p.Kpolicy.vsid_multiplier;
  Alcotest.(check int) "...which is 897" 897 p.Kpolicy.vsid_multiplier;
  Alcotest.(check (option int)) "flush cutoff is the tuned 20 pages"
    (Some Kpolicy.flush_cutoff_pages) p.Kpolicy.flush_cutoff;
  Alcotest.(check int) "reclaim every 16th idle slice" 16
    Kpolicy.reclaim_interval_slices;
  Alcotest.(check int) "64 htab slots per reclaim scan" 64
    Kpolicy.reclaim_chunk_ptes;
  Alcotest.(check int) "pre-zeroed list capped at 64 pages" 64
    Kpolicy.prezero_list_pages;
  Alcotest.(check bool) "LRU TLB replacement (the 603/604 hardware)" true
    (p.Kpolicy.tlb_replacement = Ppc.Tlb.Lru)

(* The extraction itself: the mechanism modules must no longer hardcode
   the decisions.  Sources are build deps of the test (see test/dune),
   so they sit beside the test executable in the build tree, wherever
   it is run from. *)

let read_source rel =
  In_channel.with_open_text
    (Filename.concat (Filename.dirname Sys.executable_name) rel)
    In_channel.input_all

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_constants_live_in_policy_module () =
  let policy_src = read_source "../lib/kernel_sim/policy.ml" in
  List.iter
    (fun literal ->
      Alcotest.(check bool)
        ("kernel_sim/policy.ml defines " ^ literal)
        true
        (contains policy_src literal))
    [ "let flush_cutoff_pages = 20";
      "let reclaim_interval_slices = 16";
      "let reclaim_chunk_ptes = 64";
      "let prezero_list_pages = 64" ];
  let vsid_src = read_source "../lib/kernel_sim/vsid_alloc.ml" in
  Alcotest.(check bool) "vsid_alloc.ml defines scatter_multiplier = 897" true
    (contains vsid_src "let scatter_multiplier = 897")

let test_mechanism_modules_do_not_hardcode () =
  (* kparams is pure machine-path-length data again: no reclaim cadence,
     no pre-zero depth *)
  let kparams_src = read_source "../lib/kernel_sim/kparams.ml" in
  List.iter
    (fun banned ->
      Alcotest.(check bool)
        ("kparams.ml no longer mentions " ^ banned)
        false
        (contains kparams_src banned))
    [ "reclaim"; "prezero" ];
  (* pagepool reads its list depth from the policy module's constant *)
  let pagepool_src = read_source "../lib/kernel_sim/pagepool.ml" in
  Alcotest.(check bool) "pagepool.ml reads Policy.prezero_list_pages" true
    (contains pagepool_src "Policy.prezero_list_pages");
  Alcotest.(check bool) "pagepool.ml has no hardcoded 64-page depth" false
    (contains pagepool_src "64")

(* --- catalog + string get/set --------------------------------------- *)

let test_catalog_shape () =
  Alcotest.(check int) "16 knobs" 16 (List.length Policy.catalog);
  Alcotest.(check (list string)) "knob_keys is the catalog order"
    (List.map (fun k -> k.Policy.ki_key) Policy.catalog)
    Policy.knob_keys;
  List.iter
    (fun k ->
      Alcotest.(check bool) (k.Policy.ki_key ^ " names its origin") true
        (String.length k.Policy.ki_origin > 0);
      Alcotest.(check bool) (k.Policy.ki_key ^ " cites a section") true
        (String.length k.Policy.ki_section > 0))
    Policy.catalog

let test_get_set_every_knob () =
  let p = Policy.paper_default in
  List.iter
    (fun key ->
      let v = ok (Policy.get p key) in
      let p' = ok (Policy.set p key v) in
      Alcotest.(check bool) (key ^ ": set (get p) is the identity") true
        (Policy.equal p p'))
    Policy.knob_keys

let test_set_rejects_garbage () =
  let p = Policy.paper_default in
  expect_error "unknown key" (Policy.set p "warp_drive" "on");
  expect_error "non-integer multiplier"
    (Policy.set p "vsid_multiplier" "banana");
  expect_error "bad enum" (Policy.set p "tlb_replacement" "clairvoyant");
  expect_error "bad bool" (Policy.set p "fast_reload" "maybe")

(* The knobs that became constants (the idle cadence and list depth), the
   never-enabled I/O BAT, and lazy flushing (now the counter VSID source
   itself) are unknown keys, to [--policy] and to policy files alike. *)
let test_removed_knobs_rejected () =
  List.iter
    (fun (key, value) ->
      Alcotest.(check bool) (key ^ " is not in the catalog") false
        (List.mem key Policy.knob_keys);
      let unknown = Error (Printf.sprintf "unknown policy knob %S" key) in
      let rejected how r =
        Alcotest.(check (result reject string))
          (key ^ " is unknown " ^ how) unknown r
      in
      rejected "to set" (Policy.set Policy.paper_default key value);
      rejected "to a policy file"
        (Policy.of_string (Printf.sprintf "{%S: %s}" key value)))
    [ ("bat_io_mapping", "true");
      ("lazy_flush", "false");
      ("reclaim_interval", "8");
      ("reclaim_chunk", "32");
      ("prezero_list_limit", "16") ]

let test_apply_kv () =
  let p = ok (Policy.apply_kv Policy.paper_default "vsid_multiplier=64") in
  Alcotest.(check string) "assignment applied" "64"
    (ok (Policy.get p "vsid_multiplier"));
  (* a bare preset name replaces the base entirely *)
  let b = ok (Policy.apply_kv p "baseline") in
  Alcotest.(check bool) "bare preset replaces the base" true
    (Policy.equal b Config.baseline);
  expect_error "unknown preset" (Policy.apply_kv p "no-such-preset");
  expect_error "malformed assignment" (Policy.apply_kv p "vsid_multiplier=")

let test_flush_cutoff_none () =
  let p = ok (Policy.set Policy.paper_default "flush_cutoff" "none") in
  Alcotest.(check (option int)) "none parses" None p.Kpolicy.flush_cutoff;
  Alcotest.(check string) "and renders back" "none"
    (ok (Policy.get p "flush_cutoff"))

let test_diff () =
  Alcotest.(check int) "no self-diff" 0
    (List.length (Policy.diff Policy.paper_default Policy.paper_default));
  let p = ok (Policy.apply_kv Policy.paper_default "vsid_multiplier=64") in
  match Policy.diff Policy.paper_default p with
  | [ (key, a, b) ] ->
      Alcotest.(check string) "diff names the knob" "vsid_multiplier" key;
      Alcotest.(check string) "old value" "897" a;
      Alcotest.(check string) "new value" "64" b
  | l -> Alcotest.fail (Printf.sprintf "expected one diff, got %d" (List.length l))

(* --- JSON round-trip ------------------------------------------------- *)

let test_json_round_trip () =
  let check_rt name p =
    let p' = ok (Policy.of_json (Policy.to_json p)) in
    Alcotest.(check bool) (name ^ " round-trips") true (Policy.equal p p')
  in
  check_rt "paper_default" Policy.paper_default;
  check_rt "baseline" Config.baseline;
  let tweaked =
    ok
      (Policy.of_string
         "{\"vsid_multiplier\": 64, \"flush_cutoff\": \"none\", \
          \"tlb_replacement\": \"fifo\"}")
  in
  Alcotest.(check string) "of_string applies over paper_default" "fifo"
    (ok (Policy.get tweaked "tlb_replacement"));
  check_rt "tweaked" tweaked

let test_json_unknown_key_rejected () =
  expect_error "unknown member"
    (Policy.of_string "{\"vsid_multiplier\": 64, \"warp_drive\": true}");
  expect_error "unknown base preset"
    (Policy.of_string "{\"base\": \"no-such-preset\"}");
  expect_error "not an object" (Policy.of_string "[1, 2]")

let test_json_base_member () =
  let p = ok (Policy.of_string "{\"base\": \"baseline\"}") in
  Alcotest.(check bool) "base picks the preset" true
    (Policy.equal p Config.baseline);
  let p =
    ok (Policy.of_string "{\"base\": \"baseline\", \"vsid_multiplier\": 897}")
  in
  Alcotest.(check string) "members apply over the base" "897"
    (ok (Policy.get p "vsid_multiplier"));
  Alcotest.(check bool) "rest stays baseline" false
    p.Kpolicy.bat_kernel_mapping

let test_load_file () =
  let path = Filename.temp_file "policy" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string (Policy.to_json Policy.paper_default)));
      let p = ok (Policy.load_file path) in
      Alcotest.(check bool) "file round-trips" true
        (Policy.equal p Policy.paper_default));
  expect_error "missing file" (Policy.load_file "/nonexistent/policy.json")

(* Kernel.flush_range applies a cutoff only under counter VSIDs, so the
   flag summary names one only there. *)
let test_describe_cutoff_needs_counter_vsids () =
  Alcotest.(check bool) "counter VSIDs name the cutoff" true
    (contains (Kpolicy.describe Kpolicy.optimized) "cutoff=20");
  Alcotest.(check bool) "pid VSIDs name no cutoff" false
    (contains
       (Kpolicy.describe
          { Kpolicy.optimized with Kpolicy.vsid_source = Vsid_alloc.Pid_based })
       "cutoff=")

let suite =
  [ Alcotest.test_case "paper_default carries the paper's constants" `Quick
      test_paper_default_constants;
    Alcotest.test_case "constants live in the policy module" `Quick
      test_constants_live_in_policy_module;
    Alcotest.test_case "mechanism modules no longer hardcode" `Quick
      test_mechanism_modules_do_not_hardcode;
    Alcotest.test_case "catalog shape" `Quick test_catalog_shape;
    Alcotest.test_case "get/set round-trips every knob" `Quick
      test_get_set_every_knob;
    Alcotest.test_case "set rejects garbage" `Quick test_set_rejects_garbage;
    Alcotest.test_case "apply_kv assignments and presets" `Quick
      test_apply_kv;
    Alcotest.test_case "flush_cutoff none" `Quick test_flush_cutoff_none;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "JSON rejects unknown keys" `Quick
      test_json_unknown_key_rejected;
    Alcotest.test_case "JSON base member" `Quick test_json_base_member;
    Alcotest.test_case "policy file loading" `Quick test_load_file;
    Alcotest.test_case "removed knobs are unknown keys" `Quick
      test_removed_knobs_rejected;
    Alcotest.test_case "describe names a cutoff only with counter VSIDs"
      `Quick test_describe_cutoff_needs_counter_vsids ]
