open Ppc
module Kernel = Kernel_sim.Kernel
module Policy = Kernel_sim.Policy
module Mm = Kernel_sim.Mm
module Pipe = Kernel_sim.Pipe
module Measure = Workloads.Measure

type personality = {
  p_name : string;
  p_policy : Policy.t;
  extra_syscall_instr : int;
  extra_switch_instr : int;
  extra_pipe_op_instr : int;
  extra_copy_cycles_per_word : int;
}

let linux_opt =
  { p_name = "Linux/PPC";
    p_policy = Policy.optimized;
    extra_syscall_instr = 0;
    extra_switch_instr = 0;
    extra_pipe_op_instr = 0;
    extra_copy_cycles_per_word = 0 }

let linux_unopt =
  { linux_opt with p_name = "Unoptimized Linux/PPC"; p_policy = Policy.baseline }

(* Mach-based systems: the Rhapsody kernel co-locates the BSD server, so
   its per-syscall overhead is smaller than MkLinux's full RPC to the
   Linux single-server, but both pay the Mach thread machinery on every
   switch and message-copy costs on pipe data. *)
let rhapsody =
  { p_name = "Rhapsody 5.0";
    p_policy = Policy.optimized;
    extra_syscall_instr = 1700;
    extra_switch_instr = 7400;
    extra_pipe_op_instr = 3550;
    extra_copy_cycles_per_word = 16 }

let mklinux =
  { p_name = "MkLinux";
    p_policy = Policy.optimized;
    extra_syscall_instr = 2250;
    extra_switch_instr = 7400;
    extra_pipe_op_instr = 8400;
    extra_copy_cycles_per_word = 0 }

let aix =
  { p_name = "AIX";
    p_policy = Policy.optimized;
    extra_syscall_instr = 1150;
    extra_switch_instr = 2300;
    extra_pipe_op_instr = 2600;
    extra_copy_cycles_per_word = 3 }

let all = [ linux_opt; linux_unopt; rhapsody; mklinux; aix ]

type row = {
  r_name : string;
  null_us : float;
  ctxsw_us : float;
  pipe_lat_us : float;
  pipe_bw_mbs : float;
}

let table3_machine = Machine.ppc604_133

(* --- the benchmark loops, with personality charges ------------------- *)

let text_pages = 16
let data_base = Mm.user_text_base + (text_pages lsl Addr.page_shift)
let stack_base = Mm.user_stack_top - (8 lsl Addr.page_shift)

let syscall p k =
  Kernel.sys_null k;
  if p.extra_syscall_instr > 0 then
    Memsys.instructions (Kernel.memsys k) p.extra_syscall_instr

let switch p k task =
  Kernel.switch_to k task;
  if p.extra_switch_instr > 0 then
    Memsys.instructions (Kernel.memsys k) p.extra_switch_instr

let pipe_charge p k =
  if p.extra_pipe_op_instr > 0 then
    Memsys.instructions (Kernel.memsys k) p.extra_pipe_op_instr

let copy_charge p k bytes =
  if p.extra_copy_cycles_per_word > 0 then
    Memsys.instructions (Kernel.memsys k)
      (bytes / 4 * p.extra_copy_cycles_per_word)

let pipe_write p k pipe ~bytes =
  pipe_charge p k;
  copy_charge p k bytes;
  ignore (Kernel.sys_pipe_write k pipe ~buf:data_base ~bytes : int)

let pipe_read p k pipe ~bytes =
  pipe_charge p k;
  copy_charge p k bytes;
  ignore (Kernel.sys_pipe_read k pipe ~buf:data_base ~bytes : int)

let tiny_body k =
  Kernel.user_run k ~instrs:120;
  for i = 0 to 5 do
    Kernel.touch k Mmu.Load (data_base + (i lsl Addr.page_shift))
  done;
  Kernel.touch k Mmu.Store stack_base

let mhz (machine : Machine.t) = machine.Machine.mhz

let bench_null p k machine =
  let task = Kernel.spawn k () in
  Kernel.switch_to k task;
  Kernel.user_run k ~instrs:2000;
  for _ = 1 to 50 do
    syscall p k
  done;
  let iters = 400 in
  let d =
    Measure.cycles k (fun () ->
        for _ = 1 to iters do
          syscall p k
        done)
  in
  Kernel.sys_exit k;
  Cost.us_of_cycles ~mhz:(mhz machine) d /. float_of_int iters

let bench_ctxsw p k machine =
  let tasks = Array.init 2 (fun _ -> Kernel.spawn k ()) in
  Array.iter
    (fun task ->
      Kernel.switch_to k task;
      Kernel.user_run k ~instrs:1000;
      tiny_body k)
    tasks;
  let rounds = 50 in
  let d =
    Measure.cycles k (fun () ->
        for _ = 1 to rounds do
          Array.iter
            (fun task ->
              switch p k task;
              tiny_body k)
            tasks
        done)
  in
  Kernel.switch_to k tasks.(0);
  let overhead =
    Measure.cycles k (fun () ->
        for _ = 1 to rounds * 2 do
          tiny_body k
        done)
  in
  Array.iter
    (fun task ->
      Kernel.switch_to k task;
      Kernel.sys_exit k)
    tasks;
  Cost.us_of_cycles ~mhz:(mhz machine)
    (d - overhead)
  /. float_of_int (rounds * 2)

let bench_pipe_lat p k machine =
  let a = Kernel.spawn k () and b = Kernel.spawn k () in
  let ab = Kernel.new_pipe k and ba = Kernel.new_pipe k in
  let round () =
    switch p k a;
    pipe_write p k ab ~bytes:1;
    switch p k b;
    pipe_read p k ab ~bytes:1;
    pipe_write p k ba ~bytes:1;
    switch p k a;
    pipe_read p k ba ~bytes:1
  in
  for _ = 1 to 5 do
    round ()
  done;
  let rounds = 60 in
  let d =
    Measure.cycles k (fun () ->
        for _ = 1 to rounds do
          round ()
        done)
  in
  Kernel.switch_to k a;
  Kernel.sys_exit k;
  Kernel.switch_to k b;
  Kernel.sys_exit k;
  Cost.us_of_cycles ~mhz:(mhz machine) d
  /. float_of_int (rounds * 2)

let bench_pipe_bw p k machine =
  let a = Kernel.spawn k () and b = Kernel.spawn k () in
  let pipe = Kernel.new_pipe k in
  let chunk = Pipe.capacity in
  let move () =
    switch p k a;
    pipe_write p k pipe ~bytes:chunk;
    switch p k b;
    pipe_read p k pipe ~bytes:chunk
  in
  for _ = 1 to 4 do
    move ()
  done;
  let chunks = 96 in
  let d =
    Measure.cycles k (fun () ->
        for _ = 1 to chunks do
          move ()
        done)
  in
  Kernel.switch_to k a;
  Kernel.sys_exit k;
  Kernel.switch_to k b;
  Kernel.sys_exit k;
  Cost.mb_per_s ~bytes:(chunks * chunk) ~mhz:(mhz machine) ~cycles:d

let measure_row ~machine p ?(seed = 42) () =
  let fresh () = Kernel.boot ~machine ~policy:p.p_policy ~seed () in
  { r_name = p.p_name;
    null_us = bench_null p (fresh ()) machine;
    ctxsw_us = bench_ctxsw p (fresh ()) machine;
    pipe_lat_us = bench_pipe_lat p (fresh ()) machine;
    pipe_bw_mbs = bench_pipe_bw p (fresh ()) machine }

let paper_row p =
  let v null ctx lat bw =
    { r_name = p.p_name; null_us = null; ctxsw_us = ctx; pipe_lat_us = lat;
      pipe_bw_mbs = bw }
  in
  if p.p_name = linux_opt.p_name then v 2.0 6.0 28.0 52.0
  else if p.p_name = linux_unopt.p_name then v 18.0 28.0 78.0 36.0
  else if p.p_name = rhapsody.p_name then v 15.0 64.0 161.0 9.0
  else if p.p_name = mklinux.p_name then v 19.0 64.0 235.0 15.0
  else v 11.0 24.0 89.0 21.0
