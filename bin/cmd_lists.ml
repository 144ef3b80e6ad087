(* The listing commands: policy knobs, policy presets, machine models. *)

open Ppc
open Cli
open Cmdliner

let listing name ~doc print =
  Cmd.v (Cmd.info name ~doc) Term.(const print $ const ())

let knobs =
  listing "knobs"
    ~doc:"List every policy knob: values, origin module, paper section."
    (fun () ->
      Report.section "Policy knobs (--policy KEY=VALUE)";
      Report.table
        ~header:
          [ "knob"; "values"; "extracted from"; "paper"; "what it decides" ]
        ~rows:
          (List.map
             (fun k ->
               [ k.Cpolicy.ki_key; k.Cpolicy.ki_values; k.Cpolicy.ki_origin;
                 k.Cpolicy.ki_section; k.Cpolicy.ki_doc ])
             Cpolicy.catalog))

let policies =
  listing "policies" ~doc:"List named policy presets." (fun () ->
      Report.table
        ~header:[ "name"; "flags" ]
        ~rows:
          (List.map
             (fun (name, p) -> [ name; Policy.describe p ])
             Config.all_named))

let machines =
  listing "machines" ~doc:"List machine models." (fun () ->
      Report.table
        ~header:[ "name"; "description" ]
        ~rows:
          (List.map
             (fun (name, m) -> [ name; Format.asprintf "%a" Machine.pp m ])
             Cli.machines))
