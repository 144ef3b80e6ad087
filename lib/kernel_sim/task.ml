open Ppc

type state =
  | Ready
  | Blocked of int
  | Exited

type t = {
  pid : int;
  mm : Mm.t;
  mutable state : state;
  mutable code_cursor : Addr.ea;
  mutable maps_framebuffer : bool;
}

let create ~pid ~mm =
  { pid; mm; state = Ready; code_cursor = Mm.user_text_base;
    maps_framebuffer = false }

let task_struct_ea t = Kparams.task_struct_ea ~pid:t.pid

let kstack_ea t = Kparams.kstack_ea ~pid:t.pid
