(** Pluggable TLB-reload backends.

    The paper's machines differ only in how a TLB miss is serviced
    (§6.1–§6.2): the 604 family searches the hashed page table in
    hardware and traps to software only when that search misses; the 603
    traps on every miss and its handler either emulates the 604's htab
    search in software (the pre-§6.2 code) or walks the Linux page
    tables directly ("improving hash tables away").  Everything else —
    BATs, segments, TLB geometry, the page-table walk-and-fill — is
    shared.

    This module is the one seam where that choice is made.  A backend is
    a {!style} plus a declarative {!costs} row; {!Mmu} drives a single
    generic reload sequence off the row, so adding a machine or a reload
    style means adding a row to {!cost_table}, not editing nested
    matches in the reload path. *)

(** The three reload backends. *)
type style =
  | Hw_search
      (** 604-style: hardware searches both PTEGs; software runs only on
          a hash-table miss (the 91-cycle interrupt). *)
  | Sw_htab
      (** 603 emulating the 604: a 32-cycle trap, then a software htab
          search (hash setup costs instructions the hardware gets for
          free), falling through to the page-table fill on a miss. *)
  | Sw_direct
      (** 603 without an htab (§6.2): the trap handler goes straight to
          the Linux PTE tree — three loads worst case. *)

val all_styles : style list

(** One backend's cost row.  The generic reload sequence is:

    + stall [entry_stall_cycles] (trap latency or hardware-search
      overhead);
    + if [handler_on_entry], run the software handler prologue (fast
      assembly or slow C per the [fast_reload] knob);
    + if the backend has an htab: charge [hash_setup_instr], search it
      ([software_search] adds per-PTE examination instructions), and
      stop on a hit;
    + on a miss (or with no htab): stall [miss_trap_cycles], run the
      handler if [handler_on_miss], then walk the page tables and fill. *)
type costs = {
  entry_stall_cycles : int;
      (** charged on every reload before anything else *)
  handler_on_entry : bool;
      (** software backends run their handler up front *)
  hash_setup_instr : int;
      (** instructions to compute the hash and PTEG addresses in
          software (0 when hardware does it) *)
  software_search : bool;
      (** PTE examination costs compare/branch instructions on top of
          each memory reference *)
  miss_trap_cycles : int;
      (** extra trap charged when the htab search misses (the 604's
          interrupt; 0 for backends already running software) *)
  handler_on_miss : bool;
      (** hardware backends enter their software handler only here *)
}

val cost_table : (style * costs) list
(** The declarative per-backend cost table — every style has exactly one
    row; the constants come from {!Cost}. *)

val costs_of : style -> costs

type t

val select : machine:Machine.t -> use_htab:bool -> t
(** The one selection seam: a hardware-reload machine always gets
    {!Hw_search} (it cannot bypass the htab, so [use_htab] is ignored);
    a software-reload machine gets {!Sw_htab} or {!Sw_direct} per
    [use_htab]. *)

val of_style : style -> t

val style : t -> style
val costs : t -> costs

val uses_htab : t -> bool
(** [false] exactly for {!Sw_direct} — the backend that "improved the
    hash table away".  {!Mmu.create} builds an htab iff this is true. *)
