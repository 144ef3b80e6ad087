open Ppc

(* Frames go out in the order of one stack of every free frame: the
   never-used ones below, lowest on top, and the freed ones pushed above
   them.  [fresh] stands for the never-used part (every frame from it
   up) and [freed] holds the pushed part, so neither costs a word per
   frame until frames are actually freed. *)
type t = {
  total : int;
  reserved : int;
  allocated : Bytes.t;     (* one byte per rpn, nonzero while handed out *)
  mutable fresh : int;     (* frames [fresh, total) were never handed out *)
  mutable freed : int array;  (* stack of freed rpns, grown on demand *)
  mutable top : int;       (* number of frames on [freed] *)
}

let create ~ram_bytes ~reserved_bytes =
  let total = ram_bytes / Addr.page_size in
  let reserved = Addr.round_up_pages reserved_bytes in
  if reserved > total then invalid_arg "Physmem.create: reserved > ram";
  { total;
    reserved;
    allocated = Bytes.make total '\000';
    fresh = reserved;
    freed = [||];
    top = 0 }

let total_frames t = t.total
let reserved_frames t = t.reserved
let free_frames t = t.top + (t.total - t.fresh)

let take t rpn =
  Bytes.set t.allocated rpn '\001';
  Some rpn

(* Freed frames first, newest on top; then the lowest fresh one, so
   early allocations are low. *)
let alloc t =
  if t.top > 0 then begin
    t.top <- t.top - 1;
    take t t.freed.(t.top)
  end
  else if t.fresh < t.total then begin
    t.fresh <- t.fresh + 1;
    take t (t.fresh - 1)
  end
  else None

let is_allocated t rpn =
  if rpn < 0 || rpn >= t.total then false
  else rpn < t.reserved || Bytes.get t.allocated rpn <> '\000'

let free t rpn =
  if rpn < 0 || rpn >= t.total then invalid_arg "Physmem.free: out of range";
  if rpn < t.reserved then invalid_arg "Physmem.free: reserved frame";
  if not (is_allocated t rpn) then invalid_arg "Physmem.free: double free";
  Bytes.set t.allocated rpn '\000';
  if t.top = Array.length t.freed then begin
    let grown = Array.make (max 16 (2 * t.top)) 0 in
    Array.blit t.freed 0 grown 0 t.top;
    t.freed <- grown
  end;
  t.freed.(t.top) <- rpn;
  t.top <- t.top + 1
