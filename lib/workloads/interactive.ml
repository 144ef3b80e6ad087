open Ppc
module Kernel = Kernel_sim.Kernel
module Sched = Kernel_sim.Sched
module Mm = Kernel_sim.Mm

type params = {
  keystrokes : int;
  think_cycles : int;
  editor_pages : int;
  compile_pages : int;
}

let default_params =
  { keystrokes = 30;
    think_cycles = 40_000;
    editor_pages = 64;
    compile_pages = 280 }

type result = {
  perf : Perf.t;
  mean_response_us : float;
  worst_response_us : float;
  wall_us : float;
}

(* The editor and the background compile under [Sched]; returns the
   keystrokes' wake-to-done response times in cycles. *)
let run k ~params:p =
  let sched = Sched.create k in
  let rng = Kernel.rng k in
  (* the editor: think, wake, burst, measure wake-to-done *)
  let editor = Kernel.spawn k ~text_pages:32 ~data_pages:p.editor_pages () in
  let editor_data = Mm.user_text_base + (32 lsl Addr.page_shift) in
  let editor_gen =
    Refgen.create ~rng ~base_ea:editor_data ~pages:p.editor_pages
      ~hot_fraction:0.3 ~locality:0.9 ()
  in
  let responses = ref [] in
  let remaining = ref p.keystrokes in
  let due_at = ref 0 in
  let state = ref `Thinking in
  Sched.add sched editor (fun k ->
      match !state with
      | `Thinking ->
          if !remaining = 0 then begin
            Kernel.sys_exit k;
            Sched.Done
          end
          else begin
            state := `Burst;
            due_at := Kernel.cycles k + p.think_cycles;
            Sched.Sleep p.think_cycles
          end
      | `Burst ->
          (* the keystroke burst: redisplay + buffer edits + a write *)
          Kernel.user_run k ~instrs:1200;
          for _ = 1 to 16 do
            Kernel.touch k
              (if Rng.int rng 3 = 0 then Mmu.Store else Mmu.Load)
              (Addr.page_base (Refgen.next editor_gen))
          done;
          Kernel.sys_null k;
          responses := (Kernel.cycles k - !due_at) :: !responses;
          decr remaining;
          state := `Thinking;
          Sched.Yield);
  (* the background compile: always runnable *)
  let compiler =
    Kernel.spawn k ~text_pages:64 ~data_pages:p.compile_pages ()
  in
  let compile_data = Mm.user_text_base + (64 lsl Addr.page_shift) in
  let compile_gen =
    Refgen.create ~rng ~base_ea:compile_data ~pages:p.compile_pages
      ~hot_fraction:0.4 ~locality:0.85 ()
  in
  let editor_done () = !remaining = 0 in
  Sched.add sched compiler (fun k ->
      Kernel.user_run k ~instrs:1500;
      for _ = 1 to 60 do
        Kernel.touch k
          (if Rng.int rng 4 = 0 then Mmu.Store else Mmu.Load)
          (Addr.page_base (Refgen.next compile_gen))
      done;
      if editor_done () then begin
        Kernel.sys_exit k;
        Sched.Done
      end
      else Sched.Yield);
  Sched.run sched;
  !responses

let measure ~machine ~policy ?(params = default_params) ?(seed = 42) () =
  let k = Kernel.boot ~machine ~policy ~seed () in
  let responses, perf = Measure.region k (fun () -> run k ~params) in
  let mhz = machine.Machine.mhz in
  let rs = List.map float_of_int responses in
  let n = float_of_int (max 1 (List.length rs)) in
  { perf;
    mean_response_us =
      Cost.us_of_cycles ~mhz
        (int_of_float (List.fold_left ( +. ) 0.0 rs /. n));
    worst_response_us =
      Cost.us_of_cycles ~mhz
        (int_of_float (List.fold_left max 0.0 rs));
    wall_us = Cost.us_of_cycles ~mhz perf.Perf.cycles }
