(** The parallel policy auto-tuner.

    The paper tuned its constants by hand: "we tuned the VSID generation
    algorithm by making Linux keep a hash table miss histogram and
    adjusting the constant until hot-spots disappeared" (§5.2).  This
    module is that loop as infrastructure, generalized to every knob the
    {!Policy} layer exposes: enumerate candidate policies over named
    axes, fan them through the fault-tolerant parallel {!Runner} (one
    isolated kernel per candidate x workload), score each candidate on
    translation cost, tail latency and htab hot spots per workload, keep
    the Pareto front, and emit a machine-readable document plus an
    {!Explain}-backed account of why the winner beats (or ties)
    {!Policy.paper_default}.  The search space is the base, the grid of
    the axes and any extra candidates: nothing around them is tried.

    Everything is deterministic in [seed], and results are independent
    of [jobs]: payloads ride the Runner's result pipe, so a [--jobs 4]
    sweep is byte-identical to a serial one. *)

(** {1 Generic fan-out}

    The primitive {!evaluate} fans its (candidate x workload) cells
    through. *)

val fan_out :
  ?jobs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?retries:int ->
  (string * (?seed:int -> unit -> Json.t)) list ->
  (string * (Json.t, string) result) list
(** Run labeled payload-producing tasks under the {!Runner} supervisor
    (fork isolation, deadlines, retries) and return each task's payload
    in input order.  [Error] carries {!Runner.describe} of whatever
    kept a payload from arriving. *)

(** {1 Metrics and workloads} *)

type metric = {
  m_name : string;
  m_value : float;  (** lower is always better *)
  m_unit : string;
}

type workload = {
  w_name : string;
  w_eval : policy:Kernel_sim.Policy.t -> seed:int -> metric list;
      (** boot a fresh kernel under [policy] and measure; must return
          the same metric names in the same order for every policy *)
}

val kbuild : ?params:Workloads.Kbuild.params -> unit -> workload
(** The compile workload (default: {!Workloads.Kbuild.default_params}
    scaled to 12 jobs).  Metrics: [translation_cost] (busy cycles per
    1000 translations), [tail_latency] (wall-clock us — for a batch
    workload the tail is the total), [htab_hot_spots] (full PTEGs at
    end of run + live-PTE evictions en route). *)

val server : ?params:Workloads.Server.params -> Workloads.Server.model -> workload
(** The request-serving workload under the given service model (the
    [model] argument overrides [params.model]).  Metrics as {!kbuild},
    except [tail_latency] is the p99 request-completion latency in
    cycles. *)

val default_workloads : workload list
(** [kbuild], [server-pool], [server-fork_exec] — the three canonical
    shapes a policy must not regress, and the workloads the CLI's
    [--workloads] flag names by [w_name]. *)

val smoke_workloads : workload list
(** A small kbuild and a short server-pool run — the CI smoke diet. *)

(** {1 Candidates} *)

type axis = {
  a_key : string;          (** a {!Policy} knob key *)
  a_values : string list;  (** candidate values, in [--policy] syntax *)
}

type candidate = {
  c_label : string;  (** ["key=v,key2=v2"], or the base label *)
  c_assignment : (string * string) list;
  c_policy : Kernel_sim.Policy.t;
}

val label_of : (string * string) list -> string
(** ["key=v,key2=v2"] for an assignment list. *)

val base_candidate : ?label:string -> Kernel_sim.Policy.t -> candidate
(** The reference point (default label ["paper_default"]). *)

val candidate_of_assignment :
  base:Kernel_sim.Policy.t -> (string * string) list -> candidate
(** Apply knob assignments over [base].
    @raise Invalid_argument on an unknown key or malformed value. *)

val grid : base:Kernel_sim.Policy.t -> axis list -> candidate list
(** The full cartesian product of the axes over [base], in
    lexicographic axis order.
    @raise Invalid_argument on an unknown key or malformed value. *)

val default_axes : axis list
(** A 3-knob grid over the decisions the paper tuned hardest: the VSID
    scatter multiplier, the precise-flush cutoff, and TLB
    replacement. *)

val smoke_axes : axis list
(** A 2x2x2 grid for CI smoke runs. *)

(** {1 Evaluation} *)

type eval = {
  e_cand : candidate;
  e_metrics : (string * metric list) list;  (** per workload, in order *)
}

val evaluate :
  ?jobs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?retries:int ->
  workloads:workload list ->
  candidate list ->
  eval list * (string * string) list
(** Fan every (candidate x workload) cell through {!fan_out}.
    Candidates are deduplicated by label, and each distinct policy runs
    once: a later candidate whose policy equals an earlier one's reads
    that candidate's results under its own label.  A candidate with any
    failed workload is dropped from the evals (it cannot be compared)
    and its failures are reported as [(task id, detail)], under each
    label that names the policy. *)

val vector : eval -> float list
(** The candidate's metric values, concatenated in workload order —
    the coordinates Pareto domination is judged in. *)

val dominates : eval -> eval -> bool
(** [dominates a b]: no metric worse, at least one strictly better. *)

val pareto : eval list -> eval list
(** The non-dominated subset, in input order. *)

val score : base:eval -> eval -> float
(** Scalar summary for ranking within the front: the mean over all
    metrics of [(1 + v) / (1 + v_base)] (the +1 keeps zero-count
    metrics like hot spots stable).  [1.0] means "exactly the base";
    lower is better. *)

(** {1 The whole run} *)

type result = {
  r_base : eval;                        (** the reference evaluation *)
  r_evals : eval list;                  (** everything evaluated *)
  r_front : eval list;                  (** the Pareto front *)
  r_winner : eval;                      (** lowest {!score} on the front *)
  r_failures : (string * string) list;
}

val tune :
  ?jobs:int ->
  ?seed:int ->
  ?timeout:float ->
  ?retries:int ->
  ?base:Kernel_sim.Policy.t ->
  ?base_label:string ->
  ?extra:candidate list ->
  workloads:workload list ->
  axes:axis list ->
  unit ->
  result
(** Evaluate exactly the base, the full {!grid} of [axes] over [base] and
    any [extra] candidates (e.g. a policy the caller expects to be
    dominated), then keep the Pareto front and its lowest {!score}.  The
    axes are the search space: to search around the base's own value,
    list it on its axis, as {!default_axes} and {!smoke_axes} do.
    @raise Failure if the base itself fails to evaluate. *)

val on_front : result -> string -> bool
(** Is the labeled candidate on the Pareto front? *)

val schema : string
(** ["mmu-tricks/tuner-v1"]. *)

val doc : seed:int -> axes:axis list -> workloads:workload list -> result -> Json.t
(** The committed results document: axes, workloads, every candidate
    with assignment/score/metrics/front membership, the front, the
    winner, and any failures.  Deterministic; floats rounded to 6
    decimals. *)

(** {1 Explaining the winner} *)

val explain :
  ?top:int ->
  ?seed:int ->
  workloads:workload list ->
  base:candidate ->
  candidate:candidate ->
  unit ->
  string list
(** Rerun the workloads under both policies with the attribution
    profiler armed, then let {!Explain} rank the metric deltas and name
    the responsible PID/segment accounts — rendered report lines,
    largest relative change first. *)
