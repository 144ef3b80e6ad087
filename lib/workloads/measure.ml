open Ppc
module Kernel = Kernel_sim.Kernel

let region k f =
  let before = Perf.snapshot (Kernel.perf k) in
  let result = f () in
  (result, Perf.diff ~after:(Kernel.perf k) ~before)

let perf k f = snd (region k f)

let cycles k f = (perf k f).Perf.cycles

let us k f =
  Cost.us_of_cycles
    ~mhz:(Kernel.machine k).Machine.mhz
    (cycles k f)
