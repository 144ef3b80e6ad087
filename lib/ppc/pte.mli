(** Page table entries and the PowerPC PTEG hash.

    A PTE associates a (VSID, page index) pair with a 20-bit real page
    number plus protection and storage-control bits.  The hashed page table
    ("htab") is organised in {e PTE groups} (PTEGs) of eight entries; a
    primary hash selects one PTEG and its one's-complement selects the
    secondary (overflow) PTEG, exactly as in the 603/604 user's manuals.

    The htab stores each entry as the two words of the paper's Figure 1
    (see {!Htab}).  A [t] is an immutable decoded view of one entry, built
    by {!Htab.decode} for tests and cold readers: the table's words are
    the only copy of an entry's state, so writing through a view is not
    possible. *)

(** Page protection, from the PP bits. *)
type protection =
  | Read_write
  | Read_only
  | No_access

(** WIMG storage-control bits.  Only [i] (cache-inhibited) influences the
    simulation; the others are carried for fidelity. *)
type wimg = {
  write_through : bool;
  cache_inhibited : bool;
  memory_coherent : bool;
  guarded : bool;
}

val wimg_default : wimg
(** Cacheable, write-back, coherent, not guarded. *)

val wimg_uncached : wimg
(** Cache-inhibited ([i] set): accesses through this mapping bypass the
    data cache. *)

type t = {
  valid : bool;
  vsid : int;          (** 24-bit virtual segment id. *)
  page_index : int;    (** 16-bit page index within the segment. *)
  rpn : int;           (** 20-bit real (physical) page number. *)
  secondary : bool;    (** H bit: entry lives in its secondary PTEG. *)
  referenced : bool;   (** R bit. *)
  changed : bool;      (** C bit. *)
  wimg : wimg;
  protection : protection;
}

val make :
  ?secondary:bool ->
  ?wimg:wimg ->
  ?protection:protection ->
  vsid:int ->
  page_index:int ->
  rpn:int ->
  unit ->
  t
(** [make ~vsid ~page_index ~rpn ()] builds a valid PTE with default
    storage control and read-write protection. *)

val invalid : t
(** The invalid entry (all fields zeroed). *)

val matches : t -> vsid:int -> page_index:int -> bool
(** [matches pte ~vsid ~page_index] holds when [pte] is valid and tags
    match — the hardware comparison performed during a table search. *)

val vpn : t -> Addr.vpn
(** [vpn pte] is the virtual page number the entry translates. *)

val hash_primary : n_ptegs:int -> vsid:int -> page_index:int -> int
(** [hash_primary ~n_ptegs ~vsid ~page_index] is the primary PTEG index:
    the low 19 bits of the VSID XORed with the page index, folded into
    [n_ptegs] (which must be a power of two). *)

val hash_secondary : n_ptegs:int -> primary:int -> int
(** [hash_secondary ~n_ptegs ~primary] is the one's complement of the
    primary hash under the same fold — the overflow PTEG. *)
