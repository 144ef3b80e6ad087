type protection =
  | Read_write
  | Read_only
  | No_access

type wimg = {
  write_through : bool;
  cache_inhibited : bool;
  memory_coherent : bool;
  guarded : bool;
}

let wimg_default =
  { write_through = false;
    cache_inhibited = false;
    memory_coherent = true;
    guarded = false }

let wimg_uncached = { wimg_default with cache_inhibited = true }

type t = {
  valid : bool;
  vsid : int;
  page_index : int;
  rpn : int;
  secondary : bool;
  referenced : bool;
  changed : bool;
  wimg : wimg;
  protection : protection;
}

let make ?(secondary = false) ?(wimg = wimg_default)
    ?(protection = Read_write) ~vsid ~page_index ~rpn () =
  { valid = true;
    vsid = vsid land 0xFFFFFF;
    page_index = page_index land 0xFFFF;
    rpn = rpn land 0xFFFFF;
    secondary;
    referenced = false;
    changed = false;
    wimg;
    protection }

let invalid =
  { valid = false;
    vsid = 0;
    page_index = 0;
    rpn = 0;
    secondary = false;
    referenced = false;
    changed = false;
    wimg = wimg_default;
    protection = No_access }

let matches pte ~vsid ~page_index =
  pte.valid && pte.vsid = vsid && pte.page_index = page_index

let vpn pte = Addr.vpn_of ~vsid:pte.vsid ~ea:(pte.page_index lsl Addr.page_shift)

let hash_primary ~n_ptegs ~vsid ~page_index =
  ((vsid land 0x7FFFF) lxor (page_index land 0xFFFF)) land (n_ptegs - 1)

let hash_secondary ~n_ptegs ~primary = lnot primary land (n_ptegs - 1)
