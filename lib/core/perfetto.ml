(* The Chrome trace-event format, written once.  Trace_export,
   Span_export and Flight map their records onto these constructors;
   the key order is the one trace.json has always been pinned with. *)

let us ~mhz cycles = Json.Float (float_of_int cycles /. float_of_int mhz)

let meta ~pid ~tid kind name =
  Json.Obj
    [ ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("name", Json.String kind);
      ("args", Json.Obj [ ("name", Json.String name) ]) ]

let process_name ~pid name = meta ~pid ~tid:0 "process_name" name

let thread_name ~pid ~tid name = meta ~pid ~tid "thread_name" name

let event ~cat ~name ~pid ~tid ph fields =
  Json.Obj
    ([ ("name", Json.String name);
       ("cat", Json.String cat);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
       ("ph", Json.String ph) ]
    @ fields)

let slice ~mhz ~cat ~name ~pid ~tid ~start ~cycles args =
  event ~cat ~name ~pid ~tid "X"
    [ ("ts", us ~mhz start); ("dur", us ~mhz cycles); ("args", args) ]

let instant ~mhz ~cat ~name ~pid ~tid ~scope cycle args =
  event ~cat ~name ~pid ~tid "i"
    [ ("s", Json.String (match scope with `Thread -> "t" | `Process -> "p"));
      ("ts", us ~mhz cycle);
      ("args", args) ]

let counter ~mhz ~name ~pid cycle args =
  Json.Obj
    [ ("ph", Json.String "C");
      ("name", Json.String name);
      ("pid", Json.Int pid);
      ("ts", us ~mhz cycle);
      ("args", args) ]

let document events =
  Json.Obj
    [ ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms") ]
