(** The first-class policy layer.

    Every MM decision a workload varies — the VSID source and scatter
    multiplier, the precise-vs-lazy flush cutoff, the TLB and htab
    replacement choices, the fast/slow path-length selection — is a
    named knob over {!Kernel_sim.Policy.t} here, with a uniform string
    get/set (the CLI's [--policy KEY=VALUE]), a JSON round-trip (policy
    files, tuner documents) that rejects unknown keys, and the
    origin/paper-section catalog the docs and the {!Tuner} render.  The
    idle task's reclaim cadence and pre-zero depth are constants in
    {!Kernel_sim.Policy}, not knobs.

    The type is an alias, not a wrapper: a policy built here threads
    through {!Kernel_sim.Kernel.boot} unchanged, and
    {!Kernel_sim.Policy.optimized} {e is} {!paper_default}. *)

type t = Kernel_sim.Policy.t

val paper_default : t
(** The paper's final constants: {!Kernel_sim.Policy.optimized}. *)

(** One row of the knob catalog (for docs and [--help] style listings). *)
type knob_info = {
  ki_key : string;      (** the [--policy] key *)
  ki_origin : string;   (** module the decision was extracted from *)
  ki_section : string;  (** paper section that tuned it *)
  ki_values : string;   (** accepted value syntax, e.g. ["lru|fifo|random"] *)
  ki_doc : string;
}

val catalog : knob_info list
(** Every knob, in canonical (JSON field) order. *)

val knob_keys : string list

val get : t -> string -> (string, string) result
(** Current value of one knob, rendered in [--policy] syntax. *)

val set : t -> string -> string -> (t, string) result
(** [set p key value] — rejects unknown keys and malformed values. *)

val apply_kv : t -> string -> (t, string) result
(** One [--policy] argument: either [KEY=VALUE] applied over [p], or a
    bare preset name from {!Config.all_named} which {e replaces} [p] as
    the new base. *)

val equal : t -> t -> bool

val diff : t -> t -> (string * string * string) list
(** [(key, value_in_a, value_in_b)] for every knob that differs. *)

val to_json : t -> Json.t
(** All knobs, in catalog order. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} ([of_json (to_json p) = Ok p]).  An optional
    ["base"] member names a {!Config} preset to start from (default
    {!paper_default}); every other member must be a known knob —
    unknown keys are errors, not warnings. *)

val of_string : string -> (t, string) result

val load_file : string -> (t, string) result
(** Read and parse a policy JSON file. *)
