type kind =
  | Fetch
  | Load
  | Store

let kind_name = function
  | Fetch -> "fetch"
  | Load -> "load"
  | Store -> "store"

type structure =
  | Bat
  | Tlb
  | Htab
  | Page_table
  | No_translation

let structure_name = function
  | Bat -> "bat"
  | Tlb -> "tlb"
  | Htab -> "htab"
  | Page_table -> "page-table"
  | No_translation -> "no-translation"

type outcome = {
  pa : int option;
  inhibited : bool;
  answered : structure;
}

let agree a b =
  match (a.pa, b.pa) with
  | None, None -> true
  | Some pa, Some pb -> pa = pb && a.inhibited = b.inhibited
  | Some _, None | None, Some _ -> false

type flush_event = {
  f_what : string;
  f_vsid : int;
  f_ea : int;
}

type divergence = {
  d_check : int;
  d_cpu : int;
  d_pid : int;
  d_vsid : int;
  d_ea : int;
  d_kind : kind;
  d_fast : outcome;
  d_reference : outcome;
  d_recent_flushes : flush_event list;
}

let max_kept = 32
let max_flushes = 8

type t = {
  mutable sh_checks : int;
  mutable sh_total_divergences : int;
  mutable sh_divergences_rev : divergence list;  (* newest first, capped *)
  mutable sh_kept : int;
  mutable sh_flushes : flush_event list;  (* newest first, capped *)
  mutable sh_n_flushes : int;
}

let create () =
  { sh_checks = 0;
    sh_total_divergences = 0;
    sh_divergences_rev = [];
    sh_kept = 0;
    sh_flushes = [];
    sh_n_flushes = 0 }

let note_flush t ~what ~vsid ~ea =
  let ev = { f_what = what; f_vsid = vsid; f_ea = ea } in
  let l = ev :: t.sh_flushes in
  t.sh_flushes <-
    (if t.sh_n_flushes >= max_flushes then
       (* drop the oldest: the list is short, filteri is fine *)
       List.filteri (fun i _ -> i < max_flushes - 1) l
     else begin
       t.sh_n_flushes <- t.sh_n_flushes + 1;
       l
     end)

let check t ~cpu ~pid ~vsid ~ea ~kind ~fast ~reference =
  t.sh_checks <- t.sh_checks + 1;
  if not (agree fast reference) then begin
    t.sh_total_divergences <- t.sh_total_divergences + 1;
    if t.sh_kept < max_kept then begin
      t.sh_kept <- t.sh_kept + 1;
      t.sh_divergences_rev <-
        { d_check = t.sh_checks;
          d_cpu = cpu;
          d_pid = pid;
          d_vsid = vsid;
          d_ea = ea;
          d_kind = kind;
          d_fast = fast;
          d_reference = reference;
          d_recent_flushes = t.sh_flushes }
        :: t.sh_divergences_rev
    end
  end

let checks t = t.sh_checks
let total_divergences t = t.sh_total_divergences
let divergences t = List.rev t.sh_divergences_rev

let outcome_string o =
  match o.pa with
  | Some pa ->
      Printf.sprintf "pa=0x%08x%s (answered by %s)" pa
        (if o.inhibited then " cache-inhibited" else "")
        (structure_name o.answered)
  | None -> Printf.sprintf "FAULT (decided by %s)" (structure_name o.answered)

let report d =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "shadow divergence (check #%d): %s ea=0x%08x cpu=%d pid=%d vsid=0x%x\n"
       d.d_check (kind_name d.d_kind) d.d_ea d.d_cpu d.d_pid d.d_vsid);
  Buffer.add_string b
    (Printf.sprintf "  fast path: %s\n" (outcome_string d.d_fast));
  Buffer.add_string b
    (Printf.sprintf "  reference: %s\n" (outcome_string d.d_reference));
  (match d.d_recent_flushes with
  | [] -> ()
  | flushes ->
      Buffer.add_string b "  recent flushes (newest first):\n";
      List.iter
        (fun f ->
          Buffer.add_string b
            (Printf.sprintf "    %s vsid=0x%x ea=0x%08x\n" f.f_what f.f_vsid
               f.f_ea))
        flushes);
  Buffer.contents b
