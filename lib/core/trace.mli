(** Exporters for {!Ppc.Trace} — the half of the observability layer
    that formats, as opposed to records.

    {!Ppc.Trace} owns the hot-path API (ring buffer, histograms, the
    timeline view) because the MMU and kernel instrumentation live below
    this library in the dependency order; this module turns a finished
    trace into Chrome trace-event JSON (loadable in Perfetto or
    [chrome://tracing]), machine-readable distribution documents for
    experiment results, and a human-readable text summary. *)

open Ppc

val to_chrome : ?mhz:int -> ?name:string -> Trace.t -> Json.t
(** [to_chrome tr] maps the retained events onto the {!Perfetto}
    skeleton.  Timestamps are microseconds: simulated cycles divided by
    [mhz] (default 100, the paper's 604e clock).  Span kinds (TLB reloads, context switches, run slices, idle
    windows) become complete events (ph ["X"]) with durations; the rest
    are instants (ph ["i"]).  Events carry the owning task's PID as the
    thread id (0 = kernel/idle) and decoded payloads in [args]; timeline
    samples, when present, add counter tracks (ph ["C"]) of per-interval
    deltas. *)

val hist_to_json : Hist.t -> Json.t
(** Count/sum/max/mean, p50/p90/p99, and the non-empty buckets as
    [[lo, hi, count]] triples. *)

val timeline_to_json : Trace.t -> Json.t
(** The sampled counter timeline as [{"fields": [...], "samples":
    [[cycle, v, ...], ...]}] with one column per {!Ppc.Perf} counter —
    [Null] when sampling never fired. *)

val observability_json : timelines:bool -> Trace.t list -> Json.t
(** The per-run document embedded in experiment results when tracing is
    armed: event totals and merged histograms across every kernel the
    run booted, plus, when [timelines], one timeline per kernel that
    sampled.  The timeline recorder also runs for the profiler's
    occupancy map, so whether the trace exports it is the caller's
    request, not whether it ran. *)

val summary : Trace.t -> string
(** Flamegraph-flavoured text report: event counts with bars, latency
    distributions with percentiles, timeline sample count. *)
