(** 32-bit PowerPC address arithmetic.

    The 32-bit PowerPC translation pipeline (Figure 1 of the paper) splits a
    32-bit {e effective address} (EA) into a 4-bit segment-register index, a
    16-bit page index and a 12-bit byte offset.  The segment register
    supplies a 24-bit {e virtual segment identifier} (VSID); VSID and page
    index concatenate into a 52-bit {e virtual address}, whose page part we
    call the {e virtual page number} (VPN, 40 bits).  Translation produces a
    32-bit {e physical address} made of a 20-bit physical page number (RPN)
    and the unchanged byte offset.

    All addresses are plain OCaml [int]s (63-bit), masked to their
    architectural width.  This module is pure arithmetic with no state. *)

type ea = int
(** 32-bit effective (program) address. *)

type pa = int
(** 32-bit physical address. *)

type vpn = int
(** 40-bit virtual page number: [(vsid lsl 16) lor page_index]. *)

val page_shift : int
(** 12: pages are 4 KiB. *)

val page_size : int
(** 4096 bytes. *)

val line_shift : int
(** 5: cache lines are 32 bytes on the 603 and 604. *)

val line_size : int
(** 32 bytes. *)

val ea_mask : int
(** [0xFFFFFFFF] — all effective/physical addresses fit this mask. *)

val sr_index : ea -> int
(** [sr_index ea] is the 4-bit segment-register index (top nibble). *)

val page_index : ea -> int
(** [page_index ea] is the 16-bit page index within the segment. *)

val page_offset : ea -> int
(** [page_offset ea] is the 12-bit byte offset within the page. *)

val page_base : ea -> ea
(** [page_base ea] clears the byte offset. *)

val epn : ea -> int
(** [epn ea] is the 20-bit effective page number ([ea lsr 12]). *)

val vpn_of : vsid:int -> ea:ea -> vpn
(** [vpn_of ~vsid ~ea] combines the segment's VSID with the EA's page
    index:[(vsid lsl 16) lor page_index ea]. *)

val vsid_of_vpn : vpn -> int
(** [vsid_of_vpn vpn] recovers the 24-bit VSID. *)

val page_index_of_vpn : vpn -> int
(** [page_index_of_vpn vpn] recovers the 16-bit page index. *)

val pa_of : rpn:int -> ea:ea -> pa
(** [pa_of ~rpn ~ea] assembles a physical address from a 20-bit real page
    number and the EA's byte offset. *)

val rpn_of_pa : pa -> int
(** [rpn_of_pa pa] is the 20-bit physical page number. *)

val line_index : pa -> int
(** [line_index pa] is the cache-line number ([pa lsr 5]). *)

val is_page_aligned : ea -> bool
(** [is_page_aligned a] holds when [a] is a multiple of the page size. *)

val round_up_pages : int -> int
(** [round_up_pages bytes] is the number of pages covering [bytes]. *)

val imin : int -> int -> int
(** [imin a b] is [min a b] computed without a branch, for victim picks
    whose comparisons the host cannot predict.  Exact while [a - b] does
    not overflow, which stamps and way keys never approach. *)
