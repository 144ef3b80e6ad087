(** The Chrome trace-event format, loadable in Perfetto and
    [chrome://tracing].

    The one skeleton the three trace writers ({!Trace.to_chrome},
    {!Span_export.to_chrome}, {!Flight.to_chrome}) map their records
    onto: microsecond timestamps, process and thread names, the
    complete, instant and counter events, and the document envelope.
    Every timestamp and duration is simulated cycles divided by the
    clock in MHz, written as a JSON float of microseconds. *)

val process_name : pid:int -> string -> Json.t
(** The metadata record (ph ["M"]) naming process [pid]. *)

val thread_name : pid:int -> tid:int -> string -> Json.t
(** The metadata record naming thread [tid] of process [pid]. *)

val slice :
  mhz:int ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  start:int ->
  cycles:int ->
  Json.t ->
  Json.t
(** A complete event (ph ["X"]) from cycle [start] lasting [cycles],
    with the given [args] object. *)

val instant :
  mhz:int ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  scope:[ `Thread | `Process ] ->
  int ->
  Json.t ->
  Json.t
(** An instant event (ph ["i"]) at a cycle, drawn on its thread or
    across its whole process. *)

val counter : mhz:int -> name:string -> pid:int -> int -> Json.t -> Json.t
(** A counter sample (ph ["C"]) at a cycle: each member of the [args]
    object is one series of track [name]. *)

val document : Json.t list -> Json.t
(** [{"traceEvents": events, "displayTimeUnit": "ms"}]. *)
