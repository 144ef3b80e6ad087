(* The recorder: bounded-memory streaming telemetry.

   Where Trace keeps an event ring and Profile keeps running
   attributions, this layer snapshots the *whole* observability state —
   the Perf counters plus a set of named integer gauge vectors (htab
   occupancy and chain histogram, TLB census, per-CPU miss slices, run
   queue depths, span percentiles-so-far) — on a fixed simulated-cycle
   cadence, §5.2's "watch the table while it runs" loop as
   infrastructure.  Memsys owns two instances: the flight recorder and
   the timeline recorder whose samples Trace and Profile read.

   [next_sample] is [max_int] unless armed, so the disabled cost in
   [Memsys.charge] is a single integer compare.  Recording is
   observation only — no cycles charged, no RNG draws, no cache
   traffic — so an armed run's counters are byte-identical to a bare
   run at the same seed.

   Memory is bounded: retained samples live in a flat array that grows
   on demand up to [cap]; on overflow the recorder *decimates* — keeps
   every other sample and doubles the cadence — so an arbitrarily long
   run holds at most [cap] samples at a deterministic, self-coarsening
   resolution (the classic flight-recorder trick).  Consumers that want
   the full stream at the original cadence hook [set_on_sample] and
   write each sample out as it fires. *)

type sample = {
  s_cycle : int;
  s_perf : Perf.t;  (* a [Perf.snapshot]: immutable copy *)
  s_gauges : (string * int array) list;  (* source order; arrays owned *)
}

type t = {
  perf : Perf.t;  (* cycle source; never written *)
  mutable next_sample : int;  (* max_int = disabled *)
  mutable every : int;  (* current cadence (doubles on decimation) *)
  mutable cap : int;  (* retained-sample bound *)
  mutable label : string;
  mutable sources : (string * (unit -> int array)) list;  (* install order *)
  mutable samples : sample array;  (* grows on demand up to [cap] *)
  mutable len : int;
  mutable total : int;  (* samples ever taken, pre-decimation *)
  mutable on_sample : (t -> sample -> unit) option;
}

let default_every = 1_000_000
let default_cap = 4096

let dummy_sample = { s_cycle = 0; s_perf = Perf.create (); s_gauges = [] }

let create ~perf =
  { perf;
    next_sample = max_int;
    every = default_every;
    cap = default_cap;
    label = "";
    sources = [];
    samples = [||];
    len = 0;
    total = 0;
    on_sample = None }

(* --- lifecycle --------------------------------------------------------- *)

let enable ?(every = default_every) ?(cap = default_cap) t =
  if every < 1 then invalid_arg "Recorder.enable: every must be >= 1";
  if cap < 2 then invalid_arg "Recorder.enable: cap must be >= 2";
  t.every <- every;
  t.cap <- cap;
  t.samples <- [||];
  t.len <- 0;
  t.total <- 0;
  t.next_sample <- t.perf.Perf.cycles + every

let disable t = t.next_sample <- max_int
let enabled t = t.next_sample <> max_int

let set_label t label = t.label <- label
let label t = t.label
let every t = t.every
let cap t = t.cap

let set_on_sample t f = t.on_sample <- Some f

(* --- gauge sources ----------------------------------------------------- *)

(* Installed by the subsystems that own the state (Memsys, Mmu, Sched)
   at creation time; only ever called inside [take_sample], so an
   expensive source costs nothing until the recorder is armed.
   Re-installing a name replaces the source in place (a workload that
   builds a second scheduler on the same kernel re-points the gauge at
   the live one) without disturbing the gauge order. *)
let add_source t ~name f =
  if List.mem_assoc name t.sources then
    t.sources <-
      List.map (fun (n, g) -> if n = name then (n, f) else (n, g)) t.sources
  else t.sources <- t.sources @ [ (name, f) ]

let source_names t = List.map fst t.sources

let gauge t name = Option.map (fun f -> f ()) (List.assoc_opt name t.sources)

(* --- sampling ---------------------------------------------------------- *)

(* Halve the retained stream: keep samples 0, 2, 4, ... and double the
   cadence.  Deterministic, so two runs of the same seed decimate at
   the same points. *)
let decimate t =
  let kept = (t.len + 1) / 2 in
  for i = 0 to kept - 1 do
    t.samples.(i) <- t.samples.(2 * i)
  done;
  for i = kept to t.len - 1 do
    t.samples.(i) <- dummy_sample
  done;
  t.len <- kept;
  t.every <- t.every * 2

(* Double the storage, up to [cap]. *)
let grow t =
  let a = Array.make (min t.cap (max 64 (2 * t.len))) dummy_sample in
  Array.blit t.samples 0 a 0 t.len;
  t.samples <- a

let take_sample t =
  let s =
    { s_cycle = t.perf.Perf.cycles;
      s_perf = Perf.snapshot t.perf;
      s_gauges = List.map (fun (name, f) -> (name, f ())) t.sources }
  in
  if t.len >= t.cap then decimate t;
  if t.len = Array.length t.samples then grow t;
  t.samples.(t.len) <- s;
  t.len <- t.len + 1;
  t.total <- t.total + 1;
  (match t.on_sample with Some f -> f t s | None -> ());
  t.next_sample <- t.perf.Perf.cycles + t.every

(* --- inspection -------------------------------------------------------- *)

let length t = t.len
let total t = t.total
let sample t i =
  if i < 0 || i >= t.len then invalid_arg "Recorder.sample";
  t.samples.(i)

let samples t = Array.to_list (Array.sub t.samples 0 t.len)
