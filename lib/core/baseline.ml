type doc = {
  d_seed : int;
  d_tolerance : float option;
  d_tolerances : (string * float) list;
  d_entries : (string * Experiments.table) list;
}

let schema = "mmu-tricks/results-v1"

let doc_to_json ?tolerance ?(observability = []) ?(failures = []) ~seed entries =
  let entry (id, t) =
    let j =
      match Experiments.find id with
      | Some s -> Experiments.to_json ~id ~section:s.Experiments.section ~what:s.Experiments.what t
      | None -> Experiments.to_json ~id t
    in
    (* Distribution data rides along in a field the checker never reads,
       so baselines with and without it stay interchangeable. *)
    match (List.assoc_opt id observability, j) with
    | Some obs, Json.Obj fields ->
        Json.Obj (fields @ [ ("observability", obs) ])
    | _ -> j
  in
  Json.Obj
    ([ ("schema", Json.String schema); ("seed", Json.Int seed) ]
    @ (match tolerance with
      | Some tol -> [ ("tolerance", Json.Float tol) ]
      | None -> [])
    @ [ ("experiments", Json.List (List.map entry entries)) ]
    (* Emitted only when non-empty: a clean run's document is
       byte-identical whether or not the runner supervises failures. *)
    @
    match failures with
    | [] -> []
    | fs ->
        [ ( "failures",
            Json.List
              (List.map
                 (fun (id, detail) ->
                   Json.Obj
                     [ ("id", Json.String id);
                       ("detail", Json.String detail) ])
                 fs) ) ])

let doc_of_json j =
  let ( let* ) r f = Result.bind r f in
  let* entries_j =
    match Json.member "experiments" j with
    | Some (Json.List l) -> Ok l
    | Some _ -> Error "\"experiments\" is not a list"
    | None -> Error "missing \"experiments\""
  in
  let* entries =
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
          match Option.bind (Json.member "id" e) Json.to_string_opt with
          | None -> Error "experiment entry without an \"id\""
          | Some id ->
              let* t = Experiments.of_json e in
              conv ((id, t) :: acc) rest)
    in
    conv [] entries_j
  in
  let d_seed =
    match Option.bind (Json.member "seed" j) Json.to_int_opt with
    | Some s -> s
    | None -> 42
  in
  let d_tolerance = Option.bind (Json.member "tolerance" j) Json.to_float_opt in
  let d_tolerances =
    match Json.member "tolerances" j with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v))
          fields
    | _ -> []
  in
  Ok { d_seed; d_tolerance; d_tolerances; d_entries = entries }

let load_with_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
      Result.map_error
        (fun e -> path ^ ": " ^ e)
        (Result.bind (Json.of_string text) (fun j ->
             Result.map (fun d -> (d, j)) (doc_of_json j)))

let load path = Result.map fst (load_with_json path)

(* -------------------------------------------------- numeric extraction *)

let is_digit c = c >= '0' && c <= '9'

let numbers_of_cell cell =
  let n = String.length cell in
  let out = ref [] in
  let i = ref 0 in
  let buf = Buffer.create 16 in
  while !i < n do
    let c = cell.[!i] in
    if is_digit c || (c = '-' && !i + 1 < n && is_digit cell.[!i + 1]) then begin
      Buffer.clear buf;
      if c = '-' then (Buffer.add_char buf '-'; incr i);
      let continue = ref true in
      while !continue && !i < n do
        let c = cell.[!i] in
        if is_digit c then (Buffer.add_char buf c; incr i)
        else if
          (* a thousands separator: comma gluing a group of exactly 3 *)
          c = ','
          && !i + 3 < n
          && is_digit cell.[!i + 1]
          && is_digit cell.[!i + 2]
          && is_digit cell.[!i + 3]
          && (!i + 4 >= n || not (is_digit cell.[!i + 4]))
        then incr i (* drop the comma, keep consuming digits *)
        else if c = '.' && !i + 1 < n && is_digit cell.[!i + 1] then
          (Buffer.add_char buf '.'; incr i)
        else continue := false
      done;
      match float_of_string_opt (Buffer.contents buf) with
      | Some f -> out := f :: !out
      | None -> ()
    end
    else incr i
  done;
  List.rev !out

(* ----------------------------------------------------------- checking *)

type check = {
  c_id : string;
  c_ok : bool;
  c_numbers : int;
  c_max_rel : float;
  c_detail : string option;
}

let rel_dev a b =
  let m = Float.max (Float.abs a) (Float.abs b) in
  if m = 0.0 then 0.0 else Float.abs (a -. b) /. m

let check_table ~id ~tol ~baseline ~current =
  let fail detail ~numbers ~max_rel =
    { c_id = id; c_ok = false; c_numbers = numbers; c_max_rel = max_rel;
      c_detail = Some detail }
  in
  if baseline.Experiments.header <> current.Experiments.header then
    fail "header changed since the baseline was recorded" ~numbers:0
      ~max_rel:0.0
  else if
    List.length baseline.Experiments.rows
    <> List.length current.Experiments.rows
  then
    fail
      (Printf.sprintf "row count %d, baseline has %d"
         (List.length current.Experiments.rows)
         (List.length baseline.Experiments.rows))
      ~numbers:0 ~max_rel:0.0
  else begin
    let numbers = ref 0 and max_rel = ref 0.0 and first_bad = ref None in
    List.iteri
      (fun r (brow, crow) ->
        if List.length brow <> List.length crow then (
          if !first_bad = None then
            first_bad :=
              Some (Printf.sprintf "row %d: cell count changed" (r + 1)))
        else
          List.iteri
            (fun c (bcell, ccell) ->
              let bn = numbers_of_cell bcell
              and cn = numbers_of_cell ccell in
              if List.length bn <> List.length cn then (
                if !first_bad = None then
                  first_bad :=
                    Some
                      (Printf.sprintf
                         "row %d col %d: %S has %d numeric tokens, baseline \
                          %S has %d"
                         (r + 1) (c + 1) ccell (List.length cn) bcell
                         (List.length bn)))
              else
                List.iter2
                  (fun b cur ->
                    incr numbers;
                    let d = rel_dev b cur in
                    if d > !max_rel then max_rel := d;
                    if d > tol && !first_bad = None then
                      first_bad :=
                        Some
                          (Printf.sprintf
                             "row %d col %d: %g vs baseline %g (rel %.4f > \
                              tol %.4f)"
                             (r + 1) (c + 1) cur b d tol))
                  bn cn)
            (List.combine brow crow))
      (List.combine baseline.Experiments.rows current.Experiments.rows);
    { c_id = id; c_ok = !first_bad = None; c_numbers = !numbers;
      c_max_rel = !max_rel; c_detail = !first_bad }
  end

let tolerance_for ?(default = 0.02) doc id =
  match List.assoc_opt id doc.d_tolerances with
  | Some t -> t
  | None -> ( match doc.d_tolerance with Some t -> t | None -> default)
