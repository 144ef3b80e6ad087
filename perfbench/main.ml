(* perfbench main: run one workload, print the result as the last line.

     main.exe --workload warm|reload|server|sweep --seed N --seconds S
              --trace 0|1

   Run from the repository root (the sweep reads baselines/seed42.json).
   Exit status is 0 whenever a result line was printed, including runs
   whose checks failed: those report "correct": false. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload warm|reload|server|sweep --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10. in
  let trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w Perfbench.Bench.workloads with
        | Some w -> workload := Some w
        | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w ->
      let r =
        Perfbench.Bench.run w ~seed:!seed ~seconds:!seconds ~trace:!trace
      in
      print_endline
        (Mmu_tricks.Json.to_string ~compact:true
           (Perfbench.Bench.result_json r))
