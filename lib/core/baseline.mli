(** Regression baselines: the machine-readable results document and the
    tolerance comparison behind [mmu_sim check --baseline].

    A results document is what [mmu_sim experiment --json] emits and
    what lives committed under [baselines/]: the seed plus every
    experiment's {!Experiments.table}, optionally with per-experiment
    relative tolerances.  Checking reruns the experiments named by the
    baseline at the baseline's seed and compares every numeric token of
    every cell within tolerance — the experiments are deterministic per
    seed, so the tolerance only absorbs float-formatting differences
    across platforms, not real drift. *)

type doc = {
  d_seed : int;
  d_tolerance : float option;  (** doc-level default tolerance, if any *)
  d_tolerances : (string * float) list;  (** per-experiment overrides *)
  d_entries : (string * Experiments.table) list;  (** id, results *)
}

val doc_to_json :
  ?tolerance:float ->
  ?observability:(string * Json.t) list ->
  ?failures:(string * string) list ->
  seed:int ->
  (string * Experiments.table) list ->
  Json.t
(** Build the results document.  Experiment ids found in
    {!Experiments.registry} carry their section/description along for
    human readers of the JSON.  [observability] attaches per-experiment
    trace documents (from {!Trace.observability_json}) under an
    ["observability"] key the checker ignores, so traced and untraced
    baselines stay interchangeable.  [failures] records experiments
    that produced no table (id, human-readable detail from
    {!Runner.describe}) under a ["failures"] key, emitted only when
    non-empty — a fully clean run's document is byte-identical with or
    without supervision. *)

val doc_of_json : Json.t -> (doc, string) result

val load : string -> (doc, string) result
(** Read and decode a results document from a file. *)

val load_with_json : string -> (doc * Json.t, string) result
(** {!load}, also returning the JSON the document was decoded from (for
    the attribution and spans it may embed), parsed once. *)

val numbers_of_cell : string -> float list
(** Every numeric token in a rendered cell, in order: ["1.63/1.60"]
    yields [[1.63; 1.60]], ["-10% (219,000,000)"] yields
    [[-10.; 219000000.]].  Thousands separators are folded; a comma is
    only part of a number when it glues groups of three digits. *)

val rel_dev : float -> float -> float
(** Relative deviation [|a-b| / max |a| |b|] (0 when both are 0) — the
    measure both {!check_table} and [Explain] rank by. *)

(** Result of checking one experiment against its baseline entry. *)
type check = {
  c_id : string;
  c_ok : bool;
  c_numbers : int;  (** numeric tokens compared *)
  c_max_rel : float;  (** worst relative deviation seen *)
  c_detail : string option;  (** first mismatch, human-readable *)
}

val check_table :
  id:string ->
  tol:float ->
  baseline:Experiments.table ->
  current:Experiments.table ->
  check
(** Structural comparison (header, row count, per-cell numeric token
    count) plus numeric comparison: relative deviation
    [|a-b| / max |a| |b|] must stay within [tol] for every token. *)

val tolerance_for : ?default:float -> doc -> string -> float
(** Effective tolerance for one experiment id: per-experiment override,
    else the doc-level tolerance, else [default] (0.02 if omitted). *)
