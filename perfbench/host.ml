(* Host fingerprint recorded with every result: which machine, compiler
   and build produced the numbers, plus a fixed pure-OCaml calibration
   loop whose time scales with the host's single-core speed, so numbers
   taken on different hosts can be compared as ratios. *)

module Json = Mmu_tricks.Json

let cpuinfo_lines () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> String.split_on_char '\n' text

let field_value line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let nproc () =
  match
    List.length
      (List.filter (starts_with ~prefix:"processor") (cpuinfo_lines ()))
  with
  | 0 -> Mmu_tricks.Runner.default_jobs ()
  | n -> n

let cpu_model () =
  match List.find_opt (starts_with ~prefix:"model name") (cpuinfo_lines ()) with
  | Some l -> field_value l
  | None -> "unknown"

let release = Build_info.profile = "release"

(* 2^20 xorshift steps: integer-only, allocation-free, no memory traffic *)
let calib_loop () =
  let x = ref 88172645463325252 in
  for _ = 1 to 1 lsl 20 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  Sys.opaque_identity !x

(* median of 15 timed repetitions, in ns for the whole loop *)
let calib_ns () =
  ignore (calib_loop () : int);
  Stats.median
    (Array.init 15 (fun _ ->
         let t0 = Clock.now () in
         ignore (calib_loop () : int);
         float_of_int (Clock.now () - t0)))

let fingerprint ~calib =
  Json.Obj
    [ ("nproc", Json.Int (nproc ()));
      ("cpu_model", Json.String (cpu_model ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("profile", Json.String Build_info.profile);
      ("calib_ns", Json.Float calib) ]
