(** The flight-recorder timeline: streaming encoder, decoder, in-run
    hot-spot detectors, and the Perfetto counter export.

    {!Ppc.Recorder} takes the bounded-memory samples; this layer turns
    them into a durable artifact and watches them as they stream:

    - {e encode}: each sample becomes one compact JSONL line,
      delta-encoded — only counters and gauge vectors that changed since
      the previous line are emitted, so a long mostly-idle run costs
      bytes proportional to what happened, not to time;
    - {e detect}: typed rules ({!Above}/{!Below}/{!Step}) over derived
      {!metrics} fire typed {!incident} records into the same stream,
      carrying the profiler's attribution snapshot when [--profile] is
      armed;
    - {e decode}: {!read_file} re-integrates the deltas into absolute
      {!timeline}s for [replay], [watch] and the tests;
    - {e export}: {!to_chrome} renders Perfetto counter tracks (one
      process per recorder, one counter per metric, instant markers for
      incidents).

    A {!sink} is the streaming state machine; a {!Ppc.Boot}
    configuration whose [record] hook is {!attach} wires it into every
    kernel booted under it.  The sink writes through a caller-supplied
    [write] so a one-job run can stream lines to disk live (that is what
    [mmu_sim watch] tails) while parallel runner workers buffer lines
    and ship them through {!Runner.collect_hook}. *)

open Ppc

(** {1 Views} — one sample with absolute values *)

type view = {
  v_cycle : int;
  v_perf : (string * int) list;  (** {!Ppc.Perf.fields} of the snapshot *)
  v_gauges : (string * int array) list;
}

val view_of_sample : Recorder.sample -> view
val pfield : view -> string -> int
(** A perf counter by name; 0 when absent. *)

val gauge : view -> string -> int array option

(** {1 Derived metrics}

    Each metric is a [float option] over (previous view, current view):
    interval rates need a predecessor, instantaneous gauges need their
    source installed (no htab — no [pteg_max_chain]). *)

val metric_names : string list
val metric_doc : string -> string option
val compute : string -> prev:view option -> view -> float option

(** {1 Detector rules} *)

type trigger =
  | Above of float  (** fires when the metric exceeds the threshold *)
  | Below of float
      (** fires when the metric drops under the threshold, once the
          trailing window has filled (so startup can't trip it) *)
  | Step of float
      (** fires when the metric exceeds [factor x] the trailing-window
          mean (window full, mean positive) — the step-change detector *)
  | Drop of float
      (** fires when the metric falls under [mean / factor] (window
          full, mean positive) — the collapse detector; a run whose
          metric was always zero never trips it *)

type rule = {
  rl_id : string;
  rl_metric : string;  (** one of {!metric_names} *)
  rl_trigger : trigger;
  rl_window : int;  (** trailing samples behind the current one *)
  rl_cooldown : int;  (** samples suppressed after a firing *)
}

val rule : ?window:int -> ?cooldown:int -> string -> string -> trigger -> rule
(** [rule id metric trigger] with [window]/[cooldown] defaulting to 8.
    @raise Invalid_argument on an unknown metric, [window < 1] or
    [cooldown < 0]. *)

val default_rules : rule list
(** The five stock detectors: [htab-chain-spike] (a PTEG filled),
    [tlb-miss-step] (6x step in the TLB miss rate over a 32-sample
    baseline), [vsid-wrap-burst] (any context-counter wrap),
    [runq-imbalance] (run-queue depth skew across CPUs),
    [idle-collapse] (idle fraction drops to under 1/20 of its trailing
    mean — saturation onset, quiet on runs that never had idle). *)

val trigger_text : trigger -> string

val rules_to_json : rule list -> Json.t
val rules_of_json : Json.t -> (rule list, string) result
(** Codec for [--detect RULES.json]: [{"rules": [{"id", "metric", one of
    "above"/"below"/"step"/"drop", optional "window", "cooldown"},
    ...]}]. *)

val load_rules : string -> (rule list, string) result

(** {1 Incidents} *)

type incident = {
  i_run : int;  (** the firing recorder's run number in its timeline *)
  i_label : string;
  i_cycle : int;
  i_rule : string;
  i_metric : string;
  i_value : float;
  i_trigger : string;  (** rendered threshold, e.g. ["> 7.5"] *)
  i_attr : (int * int * int * int * int) list;
      (** profiler attribution snapshot at firing time as
          [(pid, seg, kind, count, cost)] rows (kind as
          {!Ppc.Profile.all_kinds} index); empty unless profiling was
          armed *)
}

val incident_json : incident -> Json.t
val incident_of_json : Json.t -> incident
val describe_incident : incident -> string

(** {1 The detector state machine} — shared by the streaming sink and
    batch {!detect} *)

type detector

val detector : rule list -> detector
val detector_step :
  detector -> run:int -> label:string -> prev:view option -> view ->
  incident list
(** Feed one sample; returns the incidents it fired.  Per-rule trailing
    windows exclude the current sample, so a {!Step} baseline is what
    came before the spike. *)

(** {1 Timeline decoding} *)

type timeline = {
  tl_run : int;
  tl_label : string;
  tl_every : int;  (** cadence at begin *)
  tl_final_every : int;  (** cadence at end — doubled per decimation *)
  tl_total : int;  (** samples ever taken by the recorder *)
  tl_ended : bool;  (** an ["end"] line closed this run *)
  tl_views : view list;  (** streamed samples, deltas re-integrated *)
  tl_incidents : incident list;
}

val decode_lines : string list -> (timeline list, string) result
(** Re-integrate a JSONL stream.  A ["begin"] for an already-open run id
    closes the old run first (distinct runner workers can reuse ids);
    runs never closed by an ["end"] line (crashed or still-running
    producer) are returned with what was streamed.  [Error] carries the
    offending line number. *)

val read_file : string -> (timeline list, string) result

val detect : ?rules:rule list -> timeline -> incident list
(** Batch detection over a decoded timeline ([replay --detect]). *)

val series : timeline -> (string * (int * float) list) list
(** Every computable metric as [(cycle, value)] points, in
    {!metric_names} order; metrics with no points are dropped. *)

(** {1 The streaming sink} *)

type sink

val sink : ?rules:rule list -> write:(string -> unit) -> unit -> sink
(** [write] receives one complete JSONL line (no newline) per record;
    rules default to {!default_rules}. *)

val attach : sink -> Recorder.t -> unit
(** Number the recorder's run (the sink counts runs from 1, in attach
    order), emit its ["begin"] line and hook
    {!Ppc.Recorder.set_on_sample} so every sample streams, is
    delta-encoded and detector-checked as it is taken. *)

val finish : sink -> Recorder.t -> unit
(** Emit the ["end"] line (final cadence, total/retained counts) of an
    attached recorder. *)

val incidents : sink -> incident list
(** Incidents fired through this sink, in firing order. *)

(** {1 Export} *)

val to_chrome : ?mhz:int -> ?name:string -> timeline list -> Json.t
(** The timelines mapped onto the {!Perfetto} skeleton: one process per
    timeline, one counter track ([ph:"C"]) per derived metric, one
    process-wide instant event (category ["incident"]) per incident.
    [mhz] converts cycles to microsecond timestamps (default 100). *)
