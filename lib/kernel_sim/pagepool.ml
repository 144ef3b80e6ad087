open Ppc

type t = {
  physmem : Physmem.t;
  memsys : Memsys.t;
  clearing : Policy.idle_clearing;
  use_list : bool;
  prezeroed : int Queue.t;
  mutable prezeroed_len : int;
}

let create ~physmem ~memsys ~clearing ~use_list () =
  { physmem;
    memsys;
    clearing;
    use_list;
    prezeroed = Queue.create ();
    prezeroed_len = 0 }

let perf t = Memsys.perf t.memsys

(* The "only overhead is a check" of §9: one load of the list head. *)
let charge_list_check t =
  Memsys.data_ref t.memsys ~source:Cache.Kernel ~inhibited:false ~write:false
    (Kparams.data_pa + 0x40)

(* clear_page: with the cache on, the kernel zeroes a frame with dcbz —
   one line allocated per instruction, no memory fetch, pure pollution;
   with the cache inhibited for the page, plain stores go straight to
   memory and the cache is untouched. *)
let clear_page t ~source ~inhibited rpn =
  Memsys.instructions t.memsys Kparams.clear_page_instr;
  Memsys.zero_lines t.memsys ~source ~inhibited (rpn lsl Addr.page_shift)
    ~lines:(Addr.page_size / Addr.line_size)

let get_page t =
  (perf t).Perf.get_free_page_calls <-
    (perf t).Perf.get_free_page_calls + 1;
  Physmem.alloc t.physmem

let get_zeroed_page t =
  (perf t).Perf.get_free_page_calls <-
    (perf t).Perf.get_free_page_calls + 1;
  charge_list_check t;
  match Queue.take_opt t.prezeroed with
  | Some rpn ->
      t.prezeroed_len <- t.prezeroed_len - 1;
      (perf t).Perf.prezeroed_hits <- (perf t).Perf.prezeroed_hits + 1;
      Some rpn
  | None -> begin
      match Physmem.alloc t.physmem with
      | None -> None
      | Some rpn ->
          (* Foreground demand clearing goes through the cache. *)
          clear_page t ~source:Cache.Kernel ~inhibited:false rpn;
          Some rpn
    end

let free_page t rpn = Physmem.free t.physmem rpn

let idle_clear_one t =
  match t.clearing with
  | Policy.Clear_off -> false
  | (Policy.Clear_cached | Policy.Clear_uncached) as mode ->
      if t.use_list && t.prezeroed_len >= Policy.prezero_list_pages then false
      else begin
        match Physmem.alloc t.physmem with
        | None -> false
        | Some rpn ->
            let inhibited = mode = Policy.Clear_uncached in
            clear_page t ~source:Cache.Idle_clear ~inhibited rpn;
            (perf t).Perf.pages_cleared_idle <-
              (perf t).Perf.pages_cleared_idle + 1;
            if t.use_list then begin
              Queue.add rpn t.prezeroed;
              t.prezeroed_len <- t.prezeroed_len + 1
            end
            else
              (* control experiment: the work is done, then thrown away *)
              Physmem.free t.physmem rpn;
            let tr = Memsys.trace t.memsys in
            if Trace.enabled tr then
              Trace.emit tr Trace.Idle_prezero ~pid:0 ~a:rpn
                ~b:(if t.use_list then 1 else 0);
            true
      end

let prezeroed_available t = t.prezeroed_len
