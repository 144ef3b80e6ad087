(* Host monotonic clock in nanoseconds, read without allocating.

   The stub ships with bechamel's monotonic_clock library; declaring the
   external here (unboxed, noalloc) keeps every read allocation-free in
   any build profile, so timed regions measure zero words when the code
   under test allocates nothing. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_ns ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9
