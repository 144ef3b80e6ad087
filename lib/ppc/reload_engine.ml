type style =
  | Hw_search
  | Sw_htab
  | Sw_direct

let all_styles = [ Hw_search; Sw_htab; Sw_direct ]

type costs = {
  entry_stall_cycles : int;
  handler_on_entry : bool;
  hash_setup_instr : int;
  software_search : bool;
  miss_trap_cycles : int;
  handler_on_miss : bool;
}

let cost_table =
  [ ( Hw_search,
      { entry_stall_cycles = Cost.hw_search_overhead_cycles;
        handler_on_entry = false;
        hash_setup_instr = 0;
        software_search = false;
        miss_trap_cycles = Cost.htab_miss_trap_cycles;
        handler_on_miss = true } );
    ( Sw_htab,
      { entry_stall_cycles = Cost.tlb_miss_trap_cycles;
        handler_on_entry = true;
        hash_setup_instr = Cost.sw_hash_setup_instr;
        software_search = true;
        miss_trap_cycles = 0;
        handler_on_miss = false } );
    ( Sw_direct,
      { entry_stall_cycles = Cost.tlb_miss_trap_cycles;
        handler_on_entry = true;
        hash_setup_instr = 0;
        software_search = false;
        miss_trap_cycles = 0;
        handler_on_miss = false } ) ]

let costs_of style = List.assoc style cost_table

type t = {
  e_style : style;
  e_costs : costs;
}

let of_style style = { e_style = style; e_costs = costs_of style }

let select ~machine ~use_htab =
  of_style
    (match (machine.Machine.reload, use_htab) with
    | Machine.Hardware_search, _ -> Hw_search
    | Machine.Software_trap, true -> Sw_htab
    | Machine.Software_trap, false -> Sw_direct)

let style t = t.e_style
let costs t = t.e_costs

let uses_htab t = t.e_style <> Sw_direct
