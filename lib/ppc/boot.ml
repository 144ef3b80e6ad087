type t = {
  cpus : int;
  requests : int option;
  trace : int;
  profile : bool;
  timeline : int;
  spans : bool;
  shadow : bool;
  record : (int * (Recorder.t -> unit)) option;
}

let plain =
  { cpus = 1;
    requests = None;
    trace = 0;
    profile = false;
    timeline = 0;
    spans = false;
    shadow = false;
    record = None }

let config = ref plain
let current () = !config

let with_config c f =
  let saved = !config in
  config := c;
  Fun.protect ~finally:(fun () -> config := saved) f
