type t = int array

let n_registers = 16
let kernel_first = 0xC

let create () = Array.make n_registers 0

let get (t : t) i = t.(i)

let set t i vsid = t.(i) <- vsid land 0xFFFFFF

let[@inline] vsid_for (t : t) ea = t.(Addr.sr_index ea)

let load_user t f =
  for i = 0 to kernel_first - 1 do
    t.(i) <- f i land 0xFFFFFF
  done

let load_kernel t f =
  for i = kernel_first to n_registers - 1 do
    t.(i) <- f i land 0xFFFFFF
  done

let is_kernel_segment i = i >= kernel_first

let is_kernel_ea ea = Addr.sr_index ea >= kernel_first
