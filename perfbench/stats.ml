(* The one percentile helper every timing in the benchmark goes through.

   A tail percentile is only reported when at least ten samples lie
   beyond it, so a "p99" is never the maximum in disguise: 1000 samples
   are needed for p99, 10000 for p99.9.  Percentiles use the nearest-rank
   definition on the sorted samples. *)

type summary = {
  n : int;
  median : float;
  tail_permille : int;  (** the tail reported: 999, 990, 900 or 750; 0: none *)
  tail : float;  (** [nan] when [tail_permille = 0] *)
}

(* 1-based nearest rank of the [permille] percentile among [n] samples *)
let rank ~permille n = ((permille * n) + 999) / 1000

let beyond ~permille n = n - rank ~permille n

let honest ~permille n = n > 0 && beyond ~permille n >= 10

let at sorted ~permille =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (rank ~permille n - 1)))

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile xs ~permille =
  if Array.length xs = 0 then nan else at (sorted_copy xs) ~permille

let median xs = quantile xs ~permille:500

let summarize xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  let median = if n = 0 then nan else at a ~permille:500 in
  match List.find_opt (fun p -> honest ~permille:p n) [ 999; 990; 900; 750 ] with
  | Some p -> { n; median; tail_permille = p; tail = at a ~permille:p }
  | None -> { n; median; tail_permille = 0; tail = nan }

(* [Some p99] only when the sample count makes it honest *)
let p99 xs =
  let a = sorted_copy xs in
  if honest ~permille:990 (Array.length a) then Some (at a ~permille:990)
  else None

let tail_name s =
  match s.tail_permille with
  | 999 -> "p99.9"
  | 0 -> "-"
  | p -> Printf.sprintf "p%d" (p / 10)

let describe ~unit s =
  if s.tail_permille = 0 then
    Printf.sprintf "median %.4g %s (n=%d, too few samples for a tail)" s.median
      unit s.n
  else
    Printf.sprintf "median %.4g %s, %s %.4g %s (n=%d)" s.median unit
      (tail_name s) s.tail unit s.n
