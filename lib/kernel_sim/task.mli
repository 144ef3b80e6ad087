(** Task structures.

    A task is a schedulable entity owning an address space.  The [code
    cursor] lets workloads model instruction fetch through the task's
    text working set without tracking it themselves. *)

open Ppc

type state =
  | Ready
  | Blocked of int  (** absolute cycle at which the task becomes ready *)
  | Exited

type t = {
  pid : int;
  mm : Mm.t;
  mutable state : state;
  mutable code_cursor : Addr.ea;  (** next fetch address in user text *)
  mutable maps_framebuffer : bool;
      (** the per-process frame-buffer BAT is loaded for this task on a
          context switch when the policy enables it *)
}

val create : pid:int -> mm:Mm.t -> t

val task_struct_ea : t -> Addr.ea
(** Kernel virtual address of this task's task_struct. *)

val kstack_ea : t -> Addr.ea
