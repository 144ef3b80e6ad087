(** Exporters for {!Ppc.Span} recorders.

    The recorder stores raw per-request int arrays; this module renders
    them three ways: the machine-readable spans document embedded under
    [observability.spans] in experiment results (and consumed by
    [check --slo]), Perfetto trace JSON with one track per request, and
    text tables for the [spans] subcommand.

    Every number in the JSON document is an integer (cycles, counts,
    {!Ppc.Hist.percentile} bucket bounds), so the document is
    byte-identical across [--jobs] counts and safe to [cmp] in CI. *)

open Ppc

val hist_json : Hist.t -> Json.t
(** [{count; sum; max; p50; p99; p999; buckets}] with integer
    percentiles. *)

val request_json : Span.t -> Span.request -> Json.t

val recorder_json : ?top:int -> Span.t -> Json.t
(** One per-config object: [config] (the recorder's label), request
    counts, the [overall] latency histogram, per-[classes] histograms,
    component [count]/[cost] totals, and the [top] (default 5) slowest
    requests with their breakdowns. *)

val interesting : Span.t -> bool
(** A recorder that saw at least one request — the filter that keeps
    span-less experiments out of the spans document. *)

val to_json : ?top:int -> Span.t list -> Json.t
(** The spans document: a list of {!recorder_json} objects in recorder
    creation order (one per configuration the experiment booted). *)

val to_chrome : ?mhz:int -> ?name:string -> Span.t list -> Json.t
(** The recorders mapped onto the {!Perfetto} skeleton: one process
    per recorder (named by its label), one thread per completed
    request, one complete slice from arrival to completion with the
    component breakdown in [args] — queued requests render as
    overlapping slices.  A request still in flight exports nothing.
    [mhz] converts cycles to microseconds (default 100). *)

val slowest_table : ?top:int -> Span.t -> string
(** Text table of the [top] (default 10) slowest requests: latency and
    component costs in cycles. *)

val summary : Span.t -> string
(** One line: label, request counts, latency percentiles in cycles. *)
