open Ppc

let kernel_base = 0xC0000000
let kernel_virt_of_phys pa = (kernel_base + pa) land Addr.ea_mask
let kernel_phys_of_virt ea = (ea - kernel_base) land Addr.ea_mask

let kb n = n * 1024
let mb n = n * 1024 * 1024

let vectors_pa = 0x0000_0000
let text_pa = 0x0001_0000
let text_bytes = mb 1 + kb 256
let data_pa = 0x0015_0000
let data_bytes = mb 1
let htab_pa = 0x0030_0000
let htab_bytes = kb 128

(* Everything the kernel image pins, rounded up: vectors, text, data,
   htab, plus slack for boot-time allocations.  4 MB is one BAT block. *)
let reserved_bytes = mb 4

let off_syscall = 0x0000
let off_sched = 0x4000
let off_fault = 0x8000
let off_pipe = 0xC000
let off_vfs = 0x10000
let off_mm = 0x14000
let off_idle = 0x18000
let off_exec = 0x1C000

let syscall_fast = 230
let syscall_slow = 2100
let syscall_slow_stack_refs = 48

let switch_fast = 620
let switch_slow = 2400
let switch_slow_stack_refs = 64

let segment_load_cycles = 24

let fault_service = 450
let mmap_base_cost = 700
let mmap_per_page = 1
let munmap_base_cost = 500
let munmap_per_mapped_page = 40
let fork_base = 4000
let fork_per_page = 30
let exec_base = 20000
let pipe_op = 700
let read_op = 400
let vfs_per_page = 1200
let copy_cycles_per_word = 3
let proc_exit = 1500
let idle_loop_slice = 50
let timer_tick_cycles = 1_330_000
let tick_fast = 180
let tick_slow = 1400
let tick_slow_stack_refs = 32
let clear_page_instr = 64
let vsid_wrap_instr = 200
let steal_instr = 120

(* Kernel data objects live at disjoint offsets in the 1 MB data region:
   task structs in [8K, 264K), kernel stacks in [300K, 556K), pipe
   buffers in [600K, 856K). *)
let task_struct_ea ~pid =
  kernel_virt_of_phys (data_pa + kb 8 + ((pid land 0xFF) * kb 1))

let runqueue_ea = kernel_virt_of_phys data_pa

let pipe_buf_ea ~index =
  kernel_virt_of_phys (data_pa + kb 600 + ((index land 0x3F) * Addr.page_size))

let kstack_ea ~pid =
  kernel_virt_of_phys (data_pa + kb 300 + ((pid land 0xFF) * kb 1))
