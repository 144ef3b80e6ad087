(* The experiment harness: Json, Runner, Baseline, CSV escaping. *)
module Experiments = Mmu_tricks.Experiments
module Json = Mmu_tricks.Json
module Runner = Mmu_tricks.Runner
module Baseline = Mmu_tricks.Baseline

(* ------------------------------------------------------------- to_csv *)

let csv t = Experiments.to_csv t

let mk_table ?(title = "t") ?(header = [ "a"; "b" ]) ?(notes = []) rows =
  { Experiments.title; header; rows; notes }

let test_csv_comma () =
  Alcotest.(check string) "comma quoted" "a,b\n\"x,y\",z\n"
    (csv (mk_table [ [ "x,y"; "z" ] ]))

let test_csv_quote () =
  Alcotest.(check string) "quote doubled" "a,b\n\"he said \"\"hi\"\"\",z\n"
    (csv (mk_table [ [ "he said \"hi\""; "z" ] ]))

let test_csv_newline () =
  Alcotest.(check string) "newline quoted" "a,b\n\"two\nlines\",z\n"
    (csv (mk_table [ [ "two\nlines"; "z" ] ]))

let test_csv_mixed () =
  (* all three at once, plus a plain cell left untouched *)
  Alcotest.(check string) "mixed" "a,b\n\"a,\"\"b\"\"\nc\",plain\n"
    (csv (mk_table [ [ "a,\"b\"\nc"; "plain" ] ]))

let test_csv_header_quoted () =
  Alcotest.(check string) "header cells are escaped too"
    "\"x,y\",b\n1,2\n"
    (csv (mk_table ~header:[ "x,y"; "b" ] [ [ "1"; "2" ] ]))

(* --------------------------------------------------------------- json *)

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> x = y
  | Json.Int x, Json.Float y | Json.Float y, Json.Int x ->
      float_of_int x = y
  | Json.String x, Json.String y -> x = y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_eq x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2)
           x y
  | _ -> false

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.fail e

let test_json_roundtrip_values () =
  let cases =
    [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 0;
      Json.Int (-42); Json.Int 219000000; Json.Float 3.14159;
      Json.Float (-0.001); Json.Float 1e22; Json.String "";
      Json.String "plain"; Json.String "esc \" \\ \n \t \r \b \012 done";
      Json.String "unicode snowman: \xe2\x98\x83"; Json.List [];
      Json.Obj [];
      Json.List [ Json.Int 1; Json.String "two"; Json.List [ Json.Null ] ];
      Json.Obj
        [ ("k", Json.String "v");
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]) ] ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        ("round trip: " ^ Json.to_string ~compact:true v)
        true
        (json_eq v (roundtrip v)))
    cases;
  (* compact form round-trips too *)
  let v = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]) ] in
  match Json.of_string (Json.to_string ~compact:true v) with
  | Ok v' -> Alcotest.(check bool) "compact" true (json_eq v v')
  | Error e -> Alcotest.fail e

let test_json_parse_escapes () =
  match Json.of_string {|{"s": "aA\n\t\"\\é"}|} with
  | Ok j ->
      Alcotest.(check (option string))
        "escapes decode"
        (Some "aA\n\t\"\\\xc3\xa9")
        (Option.bind (Json.member "s" j) Json.to_string_opt)
  | Error e -> Alcotest.fail e

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "[1 2]"; "{\"a\" 1}"; "tru"; "\"unterminated";
              "[1] garbage"; "{\"a\":}" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted bad JSON: " ^ s)
      | Error _ -> ())
    bad

let test_json_numbers () =
  match Json.of_string "[1, -2, 3.5, 1e3, 219000000, -0.25]" with
  | Ok (Json.List [ a; b; c; d; e; f ]) ->
      Alcotest.(check (option int)) "int" (Some 1) (Json.to_int_opt a);
      Alcotest.(check (option int)) "neg int" (Some (-2)) (Json.to_int_opt b);
      Alcotest.(check (option (float 1e-9))) "float" (Some 3.5)
        (Json.to_float_opt c);
      Alcotest.(check (option (float 1e-9))) "exponent" (Some 1000.0)
        (Json.to_float_opt d);
      Alcotest.(check (option int)) "big int" (Some 219000000)
        (Json.to_int_opt e);
      Alcotest.(check (option (float 1e-9))) "neg float" (Some (-0.25))
        (Json.to_float_opt f)
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_json_nonfinite_floats () =
  (* JSON has no inf/nan tokens: all three serialize as null, and the
     document round-trips (to Null) instead of failing to reparse *)
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h emits null" f)
        "null"
        (Json.to_string ~compact:true (Json.Float f)))
    [ infinity; neg_infinity; nan ];
  let doc = Json.Obj [ ("v", Json.Float infinity); ("w", Json.Float nan) ] in
  match Json.of_string (Json.to_string doc) with
  | Ok j ->
      Alcotest.(check bool) "inf round-trips to null" true
        (Json.member "v" j = Some Json.Null
        && Json.member "w" j = Some Json.Null)
  | Error e -> Alcotest.fail e

let test_json_unicode_escapes () =
  (* strict hex: OCaml's underscore-tolerant int_of_string must not
     leak through *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted bad \\u escape: " ^ s)
      | Error _ -> ())
    [ {|"\u12_3"|}; {|"\u00G1"|}; {|"\u+123"|}; {|"\ud800"|}; {|"\udc00"|};
      {|"\ud83dx"|}; {|"\ud83dA"|} ];
  (match Json.of_string {|"\u0041\u00e9\u2603"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "BMP escapes decode" "A\xc3\xa9\xe2\x98\x83" s
  | _ -> Alcotest.fail "BMP escapes rejected");
  (* a surrogate pair combines into one 4-byte UTF-8 code point, not
     two 3-byte CESU-8 halves *)
  match Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "surrogate pair is U+1F600" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair rejected"

let test_json_number_grammar () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted bad number: " ^ s)
      | Error _ -> ())
    [ "+1"; "-"; "01"; "-01"; "007"; "1."; "-2.e3"; "1e"; "1e+"; "0x10";
      "1_000"; "--1" ];
  List.iter
    (fun (s, expect) ->
      match Json.of_string s with
      | Ok v ->
          Alcotest.(check (option (float 1e-12))) ("accepts " ^ s) (Some expect)
            (Json.to_float_opt v)
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [ ("0", 0.0); ("-0", 0.0); ("0.5", 0.5); ("10", 10.0); ("1e5", 1e5);
      ("-0.25e-2", -0.0025); ("2E+3", 2000.0) ]

let test_table_json_roundtrip () =
  let t =
    mk_table ~title:"T — with, punctuation\"" ~notes:[ "note 1"; "note 2" ]
      [ [ "603 180MHz (htab)"; "2.08/1.80" ]; [ "-10% (hw 4)"; "x,y\nz" ] ]
  in
  match Experiments.of_json (Experiments.to_json ~id:"T9" t) with
  | Ok t' -> Alcotest.(check bool) "table round trip" true (t = t')
  | Error e -> Alcotest.fail e

let test_results_doc_roundtrip () =
  let entries =
    [ ("A", mk_table [ [ "1"; "2" ] ]);
      ("B", mk_table ~notes:[ "n" ] [ [ "3,000"; "4.5/6" ] ]) ]
  in
  let j = Baseline.doc_to_json ~tolerance:0.05 ~seed:7 entries in
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' -> (
      match Baseline.doc_of_json j' with
      | Error e -> Alcotest.fail e
      | Ok doc ->
          Alcotest.(check int) "seed" 7 doc.Baseline.d_seed;
          Alcotest.(check (option (float 1e-9))) "tolerance" (Some 0.05)
            doc.Baseline.d_tolerance;
          Alcotest.(check bool) "entries survive" true
            (doc.Baseline.d_entries = entries))

(* ------------------------------------------------------------ baseline *)

let test_numbers_of_cell () =
  let check name expect cell =
    Alcotest.(check (list (float 1e-9))) name expect
      (Baseline.numbers_of_cell cell)
  in
  check "measured/paper" [ 1.63; 1.60 ] "1.63/1.60";
  check "percent" [ -10.0 ] "-10%";
  check "thousands" [ 219000000.0 ] "219,000,000";
  check "ratio" [ 80.3 ] "80.3x";
  check "text with units" [ 66.0; 4.0 ] "66% (hw 4)";
  check "plain text" [] "no numbers here";
  check "label" [ 603.0; 180.0 ] "603 180MHz (htab)";
  check "list comma is not a separator" [ 1.0; 2.0 ] "1, 2";
  check "grouped pair" [ 8192.0; 64.0 ] "8,192 PTEs (64 KB)"

let test_check_table_pass_and_tolerance () =
  let base = mk_table [ [ "r"; "100.0"; "3,000" ] ] in
  let same = mk_table [ [ "r"; "100.0"; "3,000" ] ] in
  let near = mk_table [ [ "r"; "101.0"; "3,000" ] ] in
  let far = mk_table [ [ "r"; "150.0"; "3,000" ] ] in
  let c = Baseline.check_table ~id:"X" ~tol:0.02 ~baseline:base ~current:same in
  Alcotest.(check bool) "identical passes" true c.Baseline.c_ok;
  Alcotest.(check int) "numbers counted" 2 c.Baseline.c_numbers;
  let c = Baseline.check_table ~id:"X" ~tol:0.02 ~baseline:base ~current:near in
  Alcotest.(check bool) "1% within 2% tol" true c.Baseline.c_ok;
  Alcotest.(check bool) "max rel recorded" true (c.Baseline.c_max_rel > 0.009);
  let c = Baseline.check_table ~id:"X" ~tol:0.02 ~baseline:base ~current:far in
  Alcotest.(check bool) "50% fails 2% tol" false c.Baseline.c_ok;
  Alcotest.(check bool) "detail names the cell" true
    (match c.Baseline.c_detail with
    | Some d -> String.length d > 0
    | None -> false)

let test_check_table_structure () =
  let base = mk_table [ [ "r"; "1" ] ] in
  let hdr = mk_table ~header:[ "a"; "c" ] [ [ "r"; "1" ] ] in
  let rows = mk_table [ [ "r"; "1" ]; [ "s"; "2" ] ] in
  let toks = mk_table [ [ "r"; "1/2" ] ] in
  List.iter
    (fun (name, cur) ->
      let c =
        Baseline.check_table ~id:"X" ~tol:0.5 ~baseline:base ~current:cur
      in
      Alcotest.(check bool) name false c.Baseline.c_ok)
    [ ("header change fails", hdr); ("row count change fails", rows);
      ("token count change fails", toks) ]

let test_tolerance_for () =
  let doc =
    { Baseline.d_seed = 42; d_tolerance = Some 0.1;
      d_tolerances = [ ("EX6", 0.3) ]; d_entries = [] }
  in
  Alcotest.(check (float 1e-9)) "per-experiment wins" 0.3
    (Baseline.tolerance_for doc "EX6");
  Alcotest.(check (float 1e-9)) "doc default next" 0.1
    (Baseline.tolerance_for doc "T1");
  let bare = { doc with Baseline.d_tolerance = None; d_tolerances = [] } in
  Alcotest.(check (float 1e-9)) "fallback default" 0.02
    (Baseline.tolerance_for bare "T1")

(* -------------------------------------------------------------- runner *)

let fake id rows : string * (?seed:int -> unit -> Experiments.table) =
  ( id,
    fun ?(seed = 42) () ->
      mk_table ~title:(Printf.sprintf "%s seed %d" id seed) rows )

let test_runner_serial_equals_parallel () =
  let jobs_list = [ 1; 2; 3; 8 ] in
  let work =
    List.init 7 (fun i ->
        fake (Printf.sprintf "W%d" i) [ [ string_of_int i; "x" ] ])
  in
  let serial = Runner.run ~jobs:1 ~seed:9 work in
  List.iter
    (fun jobs ->
      let par = Runner.run ~jobs ~seed:9 work in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true (par = serial))
    jobs_list;
  (* order is input order, and the seed reached the experiments *)
  Alcotest.(check (list string)) "ids in order"
    [ "W0"; "W1"; "W2"; "W3"; "W4"; "W5"; "W6" ]
    (List.map fst serial);
  match List.assoc "W3" serial with
  | Runner.Done t ->
      Alcotest.(check string) "seed plumbed" "W3 seed 9" t.Experiments.title
  | o -> Alcotest.fail (Runner.describe o)

let test_runner_failure_isolation () =
  let boom : string * (?seed:int -> unit -> Experiments.table) =
    ("BOOM", fun ?seed:_ () -> failwith "deliberate") in
  let work = [ fake "OK1" [ [ "1" ] ]; boom; fake "OK2" [ [ "2" ] ] ] in
  List.iter
    (fun jobs ->
      match Runner.run ~jobs ~seed:1 work with
      | [ ("OK1", Runner.Done _); ("BOOM", Runner.Failed msg);
          ("OK2", Runner.Done _) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d carries the exception text" jobs)
            true
            (String.length msg > 0)
      | _ -> Alcotest.fail (Printf.sprintf "jobs=%d: wrong shape" jobs))
    [ 1; 2 ]

let test_runner_real_experiment () =
  (* one real (cheap) experiment through the forked path: identical to
     the in-process run *)
  let sel = [ ("E13", (Option.get (Experiments.find "E13")).Experiments.run) ] in
  let serial = Runner.run ~jobs:1 ~seed:3 sel in
  let forked =
    Runner.run ~jobs:2 ~seed:3 (sel @ [ fake "PAD" [ [ "p" ] ] ])
  in
  match (serial, forked) with
  | [ (_, Runner.Done a) ], (_, Runner.Done b) :: _ ->
      Alcotest.(check bool) "forked result identical" true (a = b)
  | _ -> Alcotest.fail "experiment failed"

(* --------------------------------------------------------- supervision *)

let with_fault spec f =
  Unix.putenv Runner.fault_env spec;
  Fun.protect ~finally:(fun () -> Unix.putenv Runner.fault_env "") f

let tables_of results =
  List.map (fun (id, o) -> (id, Runner.table_of_outcome o)) results

(* One child _exit(3)s and another is SIGKILLed while others are in
   flight; the supervisor must retry the lost experiments and converge
   on results byte-identical to a serial run at the same seed. *)
let test_runner_worker_death_retried () =
  let work =
    List.init 8 (fun i ->
        fake (Printf.sprintf "W%d" i) [ [ string_of_int i; "x" ] ])
  in
  let serial = Runner.run ~jobs:1 ~seed:11 work in
  with_fault "exit:W2:3,kill:W5" (fun () ->
      let par = Runner.run ~jobs:3 ~seed:11 work in
      Alcotest.(check bool)
        "retried tables byte-identical to serial" true
        (tables_of par = tables_of serial);
      (* the injected victims were recovered via the retry ladder *)
      List.iter
        (fun id ->
          match List.assoc id par with
          | Runner.Retried (n, Runner.Done _) ->
              Alcotest.(check bool) (id ^ " retry count positive") true (n >= 1)
          | o -> Alcotest.fail (id ^ ": " ^ Runner.describe o))
        [ "W2"; "W5" ];
      (* untouched experiments were not retried *)
      match List.assoc "W0" par with
      | Runner.Done _ -> ()
      | o -> Alcotest.fail ("W0: " ^ Runner.describe o))

(* With the retry budget at 0, the waitpid status must surface as a
   structured Crashed outcome instead of a generic failure string. *)
let test_runner_crash_surfaces_status () =
  let work = List.init 4 (fun i -> fake (Printf.sprintf "C%d" i) [ [ "v" ] ]) in
  (* every experiment runs in a child of its own, so each fault kills
     the child hosting its target *)
  with_fault "kill:C1,exit:C2:7" (fun () ->
      let r = Runner.run ~jobs:2 ~retries:0 ~seed:5 work in
      (match List.assoc "C1" r with
      | Runner.Crashed (Runner.Signaled s) ->
          Alcotest.(check bool) "killed by SIGKILL" true (s = Sys.sigkill)
      | o -> Alcotest.fail ("C1: " ^ Runner.describe o));
      match List.assoc "C2" r with
      | Runner.Crashed (Runner.Exited 7) -> ()
      | o -> Alcotest.fail ("C2: " ^ Runner.describe o))

(* A hung child is cut off by its deadline; the hung experiment is
   retried (fault disarmed) and still matches the serial run. *)
let test_runner_hang_timeout_retried () =
  let work = List.init 4 (fun i -> fake (Printf.sprintf "H%d" i) [ [ "v" ] ]) in
  let serial = Runner.run ~jobs:1 ~seed:8 work in
  with_fault "hang:H1" (fun () ->
      let par = Runner.run ~jobs:2 ~timeout:0.4 ~seed:8 work in
      Alcotest.(check bool)
        "tables identical after timeout recovery" true
        (tables_of par = tables_of serial);
      match List.assoc "H1" par with
      | Runner.Retried (_, Runner.Done _) -> ()
      | o -> Alcotest.fail ("H1: " ^ Runner.describe o))

(* No retries: the hang must surface as Timed_out, and an in-process
   (jobs=1) hang must be cut off by SIGALRM the same way. *)
let test_runner_timeout_surfaces () =
  let work = List.init 2 (fun i -> fake (Printf.sprintf "T%d" i) [ [ "v" ] ]) in
  with_fault "hang:T0" (fun () ->
      (match List.assoc "T0" (Runner.run ~jobs:2 ~timeout:0.3 ~retries:0 ~seed:2 work) with
      | Runner.Timed_out t ->
          Alcotest.(check (float 1e-9)) "budget reported" 0.3 t
      | o -> Alcotest.fail ("forked: " ^ Runner.describe o)));
  with_fault "hang:T0" (fun () ->
      match List.assoc "T0" (Runner.run ~jobs:1 ~timeout:0.3 ~retries:0 ~seed:2 work) with
      | Runner.Timed_out _ -> ()
      | o -> Alcotest.fail ("serial: " ^ Runner.describe o))

(* A raising experiment is a clean Failed — delivered, not retried,
   even when faults for other ids are armed. *)
let test_runner_raise_not_retried () =
  let work = [ fake "R0" [ [ "v" ] ]; fake "R1" [ [ "v" ] ] ] in
  with_fault "raise:R1" (fun () ->
      match List.assoc "R1" (Runner.run ~jobs:2 ~seed:4 work) with
      | Runner.Failed m ->
          Alcotest.(check bool) "carries the injected text" true
            (String.length m > 0)
      | o -> Alcotest.fail ("R1: " ^ Runner.describe o))

(* A dead child loses only its own experiment: with no retries, the
   fault's target is the one failure and its siblings, whichever child
   slot they ran in, are delivered untouched. *)
let test_runner_dead_child_loses_only_its_own () =
  let work = List.init 4 (fun i -> fake (Printf.sprintf "L%d" i) [ [ "v" ] ]) in
  let only victim lost r =
    List.iter
      (fun (id, o) ->
        match o with
        | Runner.Done _ when id <> victim -> ()
        | o when id = victim && lost o -> ()
        | o -> Alcotest.fail (id ^ ": " ^ Runner.describe o))
      r
  in
  with_fault "kill:L0" (fun () ->
      only "L0"
        (function Runner.Crashed (Runner.Signaled _) -> true | _ -> false)
        (Runner.run ~jobs:2 ~retries:0 ~seed:6 work));
  with_fault "hang:L1" (fun () ->
      only "L1"
        (function Runner.Timed_out _ -> true | _ -> false)
        (Runner.run ~jobs:2 ~timeout:0.3 ~retries:0 ~seed:6 work))

let test_outcome_helpers () =
  let t = mk_table [ [ "1" ] ] in
  Alcotest.(check bool) "table through Retried" true
    (Runner.table_of_outcome (Runner.Retried (2, Runner.Done t)) = Some t);
  Alcotest.(check bool) "no table from Crashed" true
    (Runner.table_of_outcome (Runner.Crashed (Runner.Exited 3)) = None);
  Alcotest.(check string) "describe names SIGKILL"
    "worker killed by SIGKILL"
    (Runner.describe (Runner.Crashed (Runner.Signaled Sys.sigkill)));
  Alcotest.(check string) "describe wraps retries"
    "timed out after 5s (after 2 retries)"
    (Runner.describe (Runner.Retried (2, Runner.Timed_out 5.0)))

let test_registry_metadata () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Experiments.id ^ " has a name") true
        (String.length s.Experiments.name > 0);
      Alcotest.(check bool) (s.Experiments.id ^ " has a section") true
        (String.length s.Experiments.section > 0);
      Alcotest.(check bool) (s.Experiments.id ^ " has a description") true
        (String.length s.Experiments.what > 0))
    Experiments.registry;
  Alcotest.(check bool) "find is case-insensitive" true
    (match Experiments.find "e13" with
    | Some s -> s.Experiments.id = "E13"
    | None -> false);
  Alcotest.(check bool) "find rejects unknown" true
    (Experiments.find "E99" = None);
  Alcotest.(check int) "all mirrors registry"
    (List.length Experiments.registry)
    (List.length Experiments.all)

let suite =
  [ Alcotest.test_case "csv comma" `Quick test_csv_comma;
    Alcotest.test_case "csv quote" `Quick test_csv_quote;
    Alcotest.test_case "csv newline" `Quick test_csv_newline;
    Alcotest.test_case "csv mixed" `Quick test_csv_mixed;
    Alcotest.test_case "csv header quoted" `Quick test_csv_header_quoted;
    Alcotest.test_case "json value round trips" `Quick
      test_json_roundtrip_values;
    Alcotest.test_case "json escape decoding" `Quick test_json_parse_escapes;
    Alcotest.test_case "json rejects malformed input" `Quick
      test_json_parse_errors;
    Alcotest.test_case "json number forms" `Quick test_json_numbers;
    Alcotest.test_case "json non-finite floats emit null" `Quick
      test_json_nonfinite_floats;
    Alcotest.test_case "json unicode escapes strict" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "json number grammar strict" `Quick
      test_json_number_grammar;
    Alcotest.test_case "table json round trip" `Quick
      test_table_json_roundtrip;
    Alcotest.test_case "results doc round trip" `Quick
      test_results_doc_roundtrip;
    Alcotest.test_case "numeric cell extraction" `Quick test_numbers_of_cell;
    Alcotest.test_case "check pass and tolerance" `Quick
      test_check_table_pass_and_tolerance;
    Alcotest.test_case "check structural changes" `Quick
      test_check_table_structure;
    Alcotest.test_case "tolerance resolution" `Quick test_tolerance_for;
    Alcotest.test_case "runner parallel = serial" `Quick
      test_runner_serial_equals_parallel;
    Alcotest.test_case "runner failure isolation" `Quick
      test_runner_failure_isolation;
    Alcotest.test_case "runner real experiment (E13)" `Slow
      test_runner_real_experiment;
    Alcotest.test_case "runner worker death retried" `Quick
      test_runner_worker_death_retried;
    Alcotest.test_case "runner crash surfaces waitpid status" `Quick
      test_runner_crash_surfaces_status;
    Alcotest.test_case "runner hang timeout retried" `Quick
      test_runner_hang_timeout_retried;
    Alcotest.test_case "runner timeout surfaces" `Quick
      test_runner_timeout_surfaces;
    Alcotest.test_case "runner raise not retried" `Quick
      test_runner_raise_not_retried;
    Alcotest.test_case "runner outcome helpers" `Quick test_outcome_helpers;
    Alcotest.test_case "registry metadata" `Quick test_registry_metadata;
    Alcotest.test_case "runner dead child loses only its own" `Quick
      test_runner_dead_child_loses_only_its_own ]
