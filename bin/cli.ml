(* What the mmu_sim commands share: the library aliases, the option terms
   that mean the same thing in every command, and [run_experiments].
   Every command arms its instruments through one [Boot] record: trace,
   profile and spans boot their kernel under it with [Boot.with_config];
   experiment and check rerun registry experiments under it with
   [run_experiments], the kernel registry armed so each experiment's
   instruments are collected in whichever process hosted it. *)

open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Config = Mmu_tricks.Config
module Metrics = Mmu_tricks.Metrics
module Report = Mmu_tricks.Report
module Experiments = Mmu_tricks.Experiments
module Runner = Mmu_tricks.Runner
module Baseline = Mmu_tricks.Baseline
module Json = Mmu_tricks.Json
module Trace_export = Mmu_tricks.Trace
module Profile_export = Mmu_tricks.Profile_export
module Explain = Mmu_tricks.Explain
module Span_export = Mmu_tricks.Span_export
module Slo = Mmu_tricks.Slo
module Cpolicy = Mmu_tricks.Policy
module Tuner = Mmu_tricks.Tuner
module Flight = Mmu_tricks.Flight
open Cmdliner

(* The CLI enumeration is generated from the machine table: adding a
   machine to [Machine.all] makes it selectable (and documented) here
   with no further edits. *)
let machines = List.map (fun m -> (Machine.slug m, m)) Machine.all

let machine_term =
  Arg.(
    value
    & opt (enum machines) Machine.ppc604_185
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:
          ("Machine model: "
          ^ String.concat ", " (List.map fst machines)
          ^ "."))

(* --policy accepts preset names AND KEY=VALUE knob overrides, applied
   left to right over --policy-file (or paper_default).  One code path
   builds the policy for every subcommand, so tuner-discovered
   configurations paste straight into any workload command. *)
let policy_term =
  let specs =
    Arg.(
      value & opt_all string []
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:
            "Policy: a preset name (see $(b,mmu_sim policies)) or a \
             KEY=VALUE knob override (see $(b,mmu_sim knobs)). Repeatable, \
             applied left to right; a preset replaces the base, overrides \
             refine it.")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "policy-file" ] ~docv:"FILE"
          ~doc:
            "JSON policy file (the format $(b,tune) and the policy layer \
             emit; unknown keys are rejected). Applied before any \
             $(b,--policy) overrides.")
  in
  let build file specs =
    let base =
      match file with
      | None -> Ok Cpolicy.paper_default
      | Some f -> Cpolicy.load_file f
    in
    match
      List.fold_left
        (fun acc s -> Result.bind acc (fun p -> Cpolicy.apply_kv p s))
        base specs
    with
    | Ok p -> Ok p
    | Error e -> Error (`Msg ("--policy: " ^ e))
  in
  Term.(term_result (const build $ file $ specs))

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let cpus_term =
  let in_range cpus =
    if cpus < 1 || cpus > 30 then Error (`Msg "--cpus must be between 1 and 30")
    else Ok cpus
  in
  Term.(
    term_result
      (const in_range
      $ Arg.(
          value & opt int 1
          & info [ "cpus" ] ~docv:"N"
              ~doc:
                "Simulated CPUs per experiment kernel (per-CPU TLBs and run \
                 queues behind one shared memory system, with IPI-based \
                 TLB shootdown). The default 1 is byte-identical to the \
                 pre-SMP simulator. $(b,experiment --json) embeds every \
                 experiment's shootdown/steal counters under \
                 observability.smp; $(b,check --baseline) gates a \
                 multi-CPU baseline (e.g. baselines/seed42_cpus4.json) the \
                 same way as the single-CPU one.")))

let jobs_term =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Child processes alive at once: each experiment runs in a \
              forked child of its own, the next starting as soon as one \
              exits; results are merged in registry order, byte-identical \
              to a serial run. 1 runs in-process.")

let timeout_term =
  Arg.(
    value & opt float 0.
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Per-experiment wall-clock budget in seconds (0 disables). A \
              child still running this long after it was forked is \
              killed and its experiment reported as timed out; serial \
              runs abort the attempt via SIGALRM.")

let retries_term =
  Arg.(
    value & opt int Runner.default_retries
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget for an experiment whose child crashed, hung or \
              exited without a result: re-forked while retries remain, \
              run serially in-parent on the final attempt.")

let shadow_term =
  Arg.(
    value & flag
    & info [ "shadow" ]
        ~doc:"Cross-validate every address translation against the shadow \
              reference MMU (a cache-free translator over the BATs and \
              backing page tables). Divergences are reported in full on \
              stderr and make the exit status nonzero. Checking is \
              observation-only — counters and results are byte-identical \
              to an unshadowed run — and composes with --jobs: each \
              child ships its verdict over the runner's result pipe.")

let sample_every_term =
  Arg.(
    value & opt int 100_000
    & info [ "sample-every" ] ~docv:"CYCLES"
        ~doc:"Timeline sampling interval in simulated cycles (0 disables \
              sampling): the cadence of the Perf-counter timeline and, \
              with --profile, of the htab occupancy map.")

(* The WORKLOAD positional of trace and profile: its name and how to run
   it on a booted kernel. *)
let workload_term =
  let module Kb = Workloads.Kbuild in
  let module Mu = Workloads.Multiuser in
  let module X = Workloads.Xserver in
  let runs =
    [ ("kbuild", fun k -> Kb.run k ~params:Kb.default_params);
      ( "multiuser",
        fun k -> ignore (Mu.run k ~params:Mu.default_params : float * float) );
      ("xserver", fun k -> X.run k ~params:X.default_params) ]
  in
  let names = List.map (fun (name, _) -> (name, name)) runs in
  Term.(
    const (fun name -> (name, List.assoc name runs))
    $ Arg.(
        value
        & pos 0 (enum names) "kbuild"
        & info [] ~docv:"WORKLOAD"
            ~doc:"Workload: kbuild, multiuser, xserver."))

(* The heading of the workload commands' tables. *)
let print_setup machine policy =
  Format.printf "machine: %a@.policy:  %s@.@." Machine.pp machine
    (Policy.describe policy)

(* Rerun the registry experiments [ids] (each one [Experiments.find]
   knows) under [config]. *)
let run_experiments config ?collect ~jobs ~seed ~timeout ~retries ids =
  let selected =
    List.map
      (fun id -> (id, (Option.get (Experiments.find id)).Experiments.run))
      ids
  in
  Runner.armed config ?collect (fun () ->
      Runner.run_collect ~jobs ~seed ~timeout ~retries selected)

(* The (id, table) of every experiment in [results] that produced one. *)
let tables results =
  List.filter_map
    (fun (id, o) -> Option.map (fun t -> (id, t)) (Runner.table_of_outcome o))
    results

(* --- per-experiment payloads -------------------------------------------

   Built from the kernels one experiment booted, drained from the kernel
   registry in whichever process hosted it (Runner.armed), so they ride
   the Runner's result pipe and every instrument composes with --jobs. *)

let span_json kernels =
  match List.filter Span_export.interesting (List.map Kernel.span kernels) with
  | [] -> None
  | recorders -> Some (Span_export.to_json recorders)

(* The shadow verdict over one experiment's kernels: translations
   cross-checked, divergences, and their rendered reports. *)
let shadow_json kernels =
  let checkers = List.filter_map Kernel.shadow kernels in
  let sum f = List.fold_left (fun a c -> a + f c) 0 checkers in
  Json.Obj
    [ ("checks", Json.Int (sum Shadow.checks));
      ("divergences", Json.Int (sum Shadow.total_divergences));
      ( "reports",
        Json.String
          (String.concat ""
             (List.concat_map
                (fun c ->
                  List.map
                    (fun d -> "  " ^ Shadow.report d)
                    (Shadow.divergences c))
                checkers)) ) ]

(* (checks, divergences, reports) of a payload's "shadow" field. *)
let shadow_verdict payload =
  let field k =
    Option.bind payload (fun p ->
        Option.bind (Json.member "shadow" p) (Json.member k))
  in
  let int k = Option.value ~default:0 (Option.bind (field k) Json.to_int_opt) in
  ( int "checks",
    int "divergences",
    Option.value ~default:"" (Option.bind (field "reports") Json.to_string_opt)
  )

(* Write one JSON document, newline-terminated, to [path]. *)
let write_json ?compact path j =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ?compact j ^ "\n"))

(* How watch and replay print a metric. *)
let fmt_metric = Printf.sprintf "%.4g"

(* A run-time verdict that did not pass exits 1, as [check] does, with
   the message laid out as cmdliner lays out an error; 124 stays
   cmdliner's usage error. *)
let fail msg =
  prerr_endline
    ("mmu_sim: " ^ String.concat "\n         " (String.split_on_char '\n' msg));
  exit 1
