(** The shadow reference MMU: a sanitizer for the translation fast path.

    The fast path answers an access from the BATs, the TLBs or the
    hashed page table — structures that are all {e caches} of the Linux
    page tables and can go stale if a flush is skipped, a VSID is
    recycled too early, or an htab eviction loses an invalidate.  The
    shadow is a cache-free, cost-free reference translator: it resolves
    the same effective address against the architectural state only
    (BAT registers, then the backing page-table walk) and compares the
    resulting physical address, the fault/permission decision and the
    cache-inhibit attribute with what the fast path produced.

    When a {!t} is attached to an {!Mmu}, every [Mmu.access] is
    cross-validated; a disagreement is recorded as a {!divergence}
    carrying the full event context — pid, VSID, EA, access kind, which
    structure answered on each side, and the most recent flush
    operations (the usual suspects when a translation goes stale).

    Checking is observation only: the reference translation charges no
    cycles, touches no cache, draws no random numbers and mutates no
    MMU state, so a shadowed run's Perf counters are byte-identical to
    an unshadowed run at the same seed.

    This module holds only the checker state; the reference translator
    itself lives in {!Mmu} (it needs the BATs, segments and backing),
    which also derives [Mmu.probe] from it. *)

(** Access kind, mirroring [Mmu.access_kind] (duplicated here so this
    module stays below {!Mmu} in the dependency order). *)
type kind =
  | Fetch
  | Load
  | Store

val kind_name : kind -> string

(** Which structure produced an answer. *)
type structure =
  | Bat            (** block address translation hit *)
  | Tlb            (** split TLB hit (or a TLB-resident protection fault) *)
  | Htab           (** hashed-page-table hit during reload *)
  | Page_table     (** the backing Linux page-table walk *)
  | No_translation (** nothing mapped the address *)

val structure_name : structure -> string

(** One side's verdict for an access. *)
type outcome = {
  pa : int option;  (** translated physical address; [None] = fault *)
  inhibited : bool; (** cache-inhibit attribute ([false] when faulting) *)
  answered : structure;
}

val agree : outcome -> outcome -> bool
(** Same fault/no-fault decision, same physical address, and — when both
    translate — the same cache-inhibit bit.  [answered] is context, not
    part of the comparison: a TLB hit and a page-table walk that produce
    the same translation agree. *)

(** A recent flush operation, kept for divergence context. *)
type flush_event = {
  f_what : string;  (** "flush-page", "context-reset", ... *)
  f_vsid : int;
  f_ea : int;
}

type divergence = {
  d_check : int;  (** ordinal of the cross-check that caught it *)
  d_cpu : int;    (** CPU whose fast path produced the answer *)
  d_pid : int;
  d_vsid : int;
  d_ea : int;
  d_kind : kind;
  d_fast : outcome;      (** what the BAT/TLB/htab fast path said *)
  d_reference : outcome; (** what the reference translator said *)
  d_recent_flushes : flush_event list;  (** newest first *)
}

type t

val create : unit -> t

val check :
  t ->
  cpu:int ->
  pid:int ->
  vsid:int ->
  ea:int ->
  kind:kind ->
  fast:outcome ->
  reference:outcome ->
  unit
(** Count one cross-check; record a divergence when the outcomes
    disagree.  The first {!max_kept} divergences are retained in full;
    later ones only increment {!total_divergences}.  [cpu] tags the
    divergence with the CPU whose TLB answered — on an SMP model a
    stale {e remote} TLB entry surfaces as a divergence on the CPU that
    kept it. *)

val note_flush : t -> what:string -> vsid:int -> ea:int -> unit
(** Remember a flush operation (bounded ring) so divergence reports can
    show what was invalidated — or should have been — just before. *)

val checks : t -> int
val total_divergences : t -> int

val divergences : t -> divergence list
(** Retained divergences, oldest first (at most {!max_kept}). *)

val max_kept : int

val report : divergence -> string
(** Multi-line human rendering of one divergence. *)
