type cell = string

let table ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun n r -> max n (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i c -> widths.(i) <- max widths.(i) (String.length c))
        row)
    all;
  let print_row row =
    let cells =
      List.mapi
        (fun i c ->
          let pad = widths.(i) - String.length c in
          (* left-align the first column, right-align the rest *)
          if i = 0 then c ^ String.make pad ' ' else String.make pad ' ' ^ c)
        row
    in
    print_string "  ";
    print_endline (String.concat "  " cells)
  in
  print_row header;
  let rule = List.init cols (fun i -> String.make widths.(i) '-') in
  print_row rule;
  List.iter print_row rows

let fmt_float v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let fmt_us v = fmt_float v
let fmt_mbs v = fmt_float v
let fmt_ms v = fmt_float v
let fmt_pct v = Printf.sprintf "%.1f%%" v
let fmt_ratio v = Printf.sprintf "%.1fx" v

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  (if n < 0 then "-" else "") ^ Buffer.contents buf

let section title =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=')
