let mflop_of_flop f = f /. 1e6
let flop_of_mflop m = m *. 1e6
let mbit_of_byte b = b *. 8.0 /. 1e6
let byte_of_mbit m = m *. 1e6 /. 8.0

let seconds ~w ~power =
  if power <= 0.0 then invalid_arg "Units.seconds: power must be positive";
  w /. power

let transfer_seconds ~size ~bandwidth =
  if bandwidth <= 0.0 then
    invalid_arg "Units.transfer_seconds: bandwidth must be positive";
  size /. bandwidth
