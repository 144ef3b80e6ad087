open Ppc
module Kernel = Kernel_sim.Kernel
module Mm = Kernel_sim.Mm
module Vfs = Kernel_sim.Vfs

type params = {
  rounds : int;
  editor_pages : int;
  compile_pages : int;
  spool_pages : int;
}

let default_params =
  { rounds = 40; editor_pages = 80; compile_pages = 240; spool_pages = 24 }

type result = {
  perf : Perf.t;
  busy_us : float;
  wall_us : float;
  keystroke_us : float;
  utility_us : float;
}

let data_of ~text_pages = Mm.user_text_base + (text_pages lsl Addr.page_shift)

let run k ~params:p =
  let rng = Kernel.rng k in
  (* the cast *)
  let editor = Kernel.spawn k ~text_pages:32 ~data_pages:p.editor_pages () in
  let daemon = Kernel.spawn k ~text_pages:8 ~data_pages:8 () in
  let shell = Kernel.spawn k ~text_pages:16 ~data_pages:16 () in
  let compiler =
    Kernel.spawn k ~text_pages:64 ~data_pages:p.compile_pages ()
  in
  let spool =
    Vfs.create_file (Kernel.vfs k) ~name:"mail-spool" ~pages:p.spool_pages
  in
  let editor_gen =
    Refgen.create ~rng ~base_ea:(data_of ~text_pages:32)
      ~pages:p.editor_pages ~hot_fraction:0.3 ~locality:0.9 ()
  in
  let compile_gen =
    Refgen.create ~rng ~base_ea:(data_of ~text_pages:64)
      ~pages:p.compile_pages ~hot_fraction:0.4 ~locality:0.8 ()
  in
  (* warm everyone up a little *)
  List.iter
    (fun t ->
      Kernel.switch_to k t;
      Kernel.user_run k ~instrs:2000)
    [ editor; daemon; shell; compiler ];
  let keystroke_cycles = ref 0 in
  let keystrokes = ref 0 in
  let utility_cycles = ref 0 in
  let utilities = ref 0 in
  for round = 0 to p.rounds - 1 do
    (* the editor user types a burst, then thinks (I/O + idle) *)
    Kernel.switch_to k editor;
    let t0 = Kernel.cycles k in
    for _ = 1 to 12 do
      (* a keystroke: redisplay code + buffer touches + a write() *)
      Kernel.user_run k ~instrs:900;
      for _ = 1 to 10 do
        let ea = Refgen.next editor_gen in
        Kernel.touch k
          (if Rng.int rng 3 = 0 then Mmu.Store else Mmu.Load)
          (Addr.page_base ea)
      done;
      Kernel.sys_null k
    done;
    keystroke_cycles := !keystroke_cycles + (Kernel.cycles k - t0);
    incr keystrokes;
    (* think time: the machine goes idle *)
    Kernel.idle_for k ~cycles:8_000;
    (* the mail daemon wakes and scans its spool *)
    Kernel.switch_to k daemon;
    Kernel.user_run k ~instrs:700;
    let buf = Kernel.sys_mmap k ~pages:4 ~writable:true in
    Kernel.sys_file_read k spool
      ~from_page:(round mod max 1 (p.spool_pages - 3))
      ~pages:(min 4 p.spool_pages) ~buf;
    Kernel.sys_munmap k ~ea:buf ~pages:4;
    (* the shell runs a small utility every few rounds *)
    if round mod 4 = 1 then begin
      Kernel.switch_to k shell;
      Kernel.user_run k ~instrs:600;
      let t0 = Kernel.cycles k in
      let child = Kernel.sys_fork k in
      Kernel.switch_to k child;
      Kernel.sys_exec k ~text_pages:12 ~data_pages:8 ~stack_pages:2;
      Kernel.user_run k ~instrs:4000;
      for i = 0 to 5 do
        Kernel.touch k Mmu.Store (data_of ~text_pages:12 + (i lsl Addr.page_shift))
      done;
      Kernel.sys_exit k;
      Kernel.switch_to k shell;
      utility_cycles := !utility_cycles + (Kernel.cycles k - t0);
      incr utilities
    end;
    (* the compile grinds on: compute + allocator churn *)
    Kernel.switch_to k compiler;
    Kernel.user_run k ~instrs:4000;
    for _ = 1 to 120 do
      let ea = Refgen.next compile_gen in
      Kernel.touch k
        (if Rng.int rng 4 = 0 then Mmu.Store else Mmu.Load)
        (Addr.page_base ea)
    done;
    if round mod 5 = 2 then begin
      let arena = Kernel.sys_mmap k ~pages:40 ~writable:true in
      for i = 0 to 9 do
        Kernel.touch k Mmu.Store (arena + (i lsl Addr.page_shift))
      done;
      Kernel.sys_munmap k ~ea:arena ~pages:40
    end
  done;
  List.iter
    (fun t ->
      Kernel.switch_to k t;
      Kernel.sys_exit k)
    [ editor; daemon; shell; compiler ];
  ( float_of_int !keystroke_cycles /. float_of_int (max 1 !keystrokes),
    float_of_int !utility_cycles /. float_of_int (max 1 !utilities) )

let measure ~machine ~policy ?(params = default_params) ?(seed = 42) () =
  let k = Kernel.boot ~machine ~policy ~seed () in
  let (keystroke_cycles, utility_cycles), perf =
    Measure.region k (fun () -> run k ~params)
  in
  let mhz = machine.Machine.mhz in
  { perf;
    busy_us = Cost.us_of_cycles ~mhz (Perf.busy_cycles perf);
    wall_us = Cost.us_of_cycles ~mhz perf.Perf.cycles;
    keystroke_us = Cost.us_of_cycles ~mhz (int_of_float keystroke_cycles);
    utility_us = Cost.us_of_cycles ~mhz (int_of_float utility_cycles) }
