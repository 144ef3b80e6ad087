type t = {
  cpus : int;
  requests : int option;
  trace : int option;
  profile : int option;
  spans : bool;
  shadow : bool;
  record : (int * (Recorder.t -> unit)) option;
}

let plain =
  { cpus = 1;
    requests = None;
    trace = None;
    profile = None;
    spans = false;
    shadow = false;
    record = None }

let config = ref plain
let current () = !config

let with_config c f =
  let saved = !config in
  config := c;
  Fun.protect ~finally:(fun () -> config := saved) f
