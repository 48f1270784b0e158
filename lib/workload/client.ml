type t = { mix : Mix.t; think_time : float }

let make ?(think_time = 0.0) mix =
  if think_time < 0.0 || not (Float.is_finite think_time) then
    invalid_arg "Client.make: think_time must be non-negative and finite";
  { mix; think_time }

let closed_loop job = make (Mix.single job)

let mix t = t.mix
let think_time t = t.think_time
