type ea = int
type pa = int
type vpn = int

let page_shift = 12
let page_size = 1 lsl page_shift
let line_shift = 5
let line_size = 1 lsl line_shift
let ea_mask = 0xFFFFFFFF

let sr_index ea = (ea lsr 28) land 0xF
let page_index ea = (ea lsr page_shift) land 0xFFFF
let page_offset ea = ea land (page_size - 1)
let page_base ea = ea land lnot (page_size - 1) land ea_mask
let epn ea = (ea lsr page_shift) land 0xFFFFF

let vpn_of ~vsid ~ea = (vsid lsl 16) lor page_index ea
let vsid_of_vpn vpn = (vpn lsr 16) land 0xFFFFFF
let page_index_of_vpn vpn = vpn land 0xFFFF

let pa_of ~rpn ~ea = ((rpn land 0xFFFFF) lsl page_shift) lor page_offset ea
let rpn_of_pa pa = (pa lsr page_shift) land 0xFFFFF

let line_index pa = pa lsr line_shift

let is_page_aligned a = a land (page_size - 1) = 0

let round_up_pages bytes = (bytes + page_size - 1) lsr page_shift

(* [d asr (int_size - 1)] is all ones exactly when [a < b], so the mask
   keeps [d] only then. *)
let[@inline always] imin a b =
  let d = a - b in
  b + (d land (d asr (Sys.int_size - 1)))
