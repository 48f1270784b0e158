type activity = Send of float | Receive of float | Compute of float

let duration activity ~power ~bandwidth =
  match activity with
  | Send size | Receive size ->
      if size < 0.0 then invalid_arg "Capability.duration: negative message size";
      Adept_util.Units.transfer_seconds ~size ~bandwidth
  | Compute w ->
      if w < 0.0 then invalid_arg "Capability.duration: negative work";
      Adept_util.Units.seconds ~w ~power

let total activities ~power ~bandwidth =
  List.fold_left (fun acc a -> acc +. duration a ~power ~bandwidth) 0.0 activities
