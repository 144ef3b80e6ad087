(** Table rendering for the benchmark harness.

    Produces the paper-style tables with a measured column next to the
    paper's reported value, so every bench's output is directly
    comparable to the original (EXPERIMENTS.md is generated from the same
    rows). *)

type cell = string

val table : header:cell list -> rows:cell list list -> unit
(** Print an aligned ASCII table to stdout. *)

val fmt_us : float -> string
(** Microseconds with sensible precision ("3240", "41.2", "3.18"). *)

val fmt_mbs : float -> string
(** Bandwidth in MB/s. *)

val fmt_ms : float -> string

val fmt_pct : float -> string

val fmt_ratio : float -> string
(** A multiplication factor ("80.3x"). *)

val fmt_int : int -> string
(** Thousands separators ("219,000,000"). *)

val section : string -> unit
(** Print a section banner. *)
