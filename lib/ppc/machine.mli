(** Machine descriptions for the processors the paper benchmarks.

    The study covers the 32-bit PowerPC 603 and 604.  The 603 takes a
    software trap on every TLB miss; the 604 (like the 601 and 750) walks
    the hashed page table in hardware and only traps when the search
    misses.  The 603 has 128 TLB entries and 16K+16K caches; the 604 has
    256 TLB entries and 32K+32K caches — "double the size TLB and cache".

    Every benchmarked machine had 32 MB of RAM, so the ratio of RAM to
    hash-table PTEs to TLB entries is fixed; the htab holds 16384 PTEs
    (2048 PTEGs), matching the paper's occupancy figures ("600–700 out of
    16384"). *)

(** How the machine refills the TLB after a miss. *)
type reload_style =
  | Hardware_search
      (** 604-style: hardware searches the hashed page table; software
          runs only on a hash-table miss. *)
  | Software_trap
      (** 603-style: every TLB miss traps to a software handler, which may
          search the htab or walk the page tables directly. *)

type tlb_geometry = {
  tlb_sets : int;  (** number of sets per TLB (I and D are split) *)
  tlb_ways : int;  (** associativity *)
}

type cache_geometry = {
  cache_bytes : int;  (** total capacity *)
  cache_ways : int;   (** associativity; lines are 32 bytes *)
}

type t = {
  name : string;
  mhz : int;
  reload : reload_style;
  itlb : tlb_geometry;
  dtlb : tlb_geometry;
  icache : cache_geometry;
  dcache : cache_geometry;
  mem_latency : int;  (** cycles for a memory access that misses L1 *)
  ram_bytes : int;    (** physical memory (32 MB throughout the paper) *)
  htab_ptes : int;    (** hashed-page-table capacity in PTEs (16384) *)
}

val tlb_entries : t -> int
(** Total TLB entries (I + D). *)

val n_ptegs : t -> int
(** [htab_ptes / 8]: number of PTE groups. *)

val ppc603_133 : t
(** 133 MHz 603: the Table 2 software-reload machine. *)

val ppc603_180 : t
(** 180 MHz 603: the Table 1 software-reload machine (slower board /
    memory than the 200 MHz 604 system). *)

val ppc604_133 : t
(** 133 MHz 604 (PowerMac 9500): the Table 3 comparison machine. *)

val ppc604_185 : t
(** 185 MHz 604: the main hardware-reload machine. *)

val ppc604_200 : t
(** 200 MHz 604 "with significantly faster main memory and a better board
    design" (Table 1). *)

val ppc601_80 : t
(** 80 MHz 601: the oldest of the hardware-reload parts ("when we refer
    to the 604 we mean the 604 style of TLB reloads (in hardware) which
    includes the 750 and 601").  Its unified 32K cache is approximated as
    a 16K+16K split. *)

val ppc750_233 : t
(** 233 MHz 750: the newest hardware-reload part — a fast core in front
    of comparatively slow memory, which is exactly the regime where
    reload costs matter most. *)

val all : t list
(** Every predefined machine. *)

val slug : t -> string
(** Stable command-line identifier derived from [name]: lowercase,
    spaces become dashes, the "MHz" unit is dropped — ["603 133MHz"]
    becomes ["603-133"].  The CLI machine enumeration is generated from
    [all] via this function, so adding a machine here is enough to make
    it selectable. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)
