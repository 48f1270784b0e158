type t = {
  name : string;
  power : float;
  mutable free_at : float;
  mutable busy : float;
  mutable bookings : int;
  mutable last_request : float;
}

let create ~name ~power =
  if power <= 0.0 || not (Float.is_finite power) then
    invalid_arg "Resource.create: power must be positive and finite";
  { name; power; free_at = 0.0; busy = 0.0; bookings = 0; last_request = 0.0 }

let power t = t.power
let free_at t = t.free_at

let book t ~now ~duration =
  if duration < 0.0 || Float.is_nan duration then
    invalid_arg "Resource.book: negative or NaN duration";
  if now < t.last_request then
    invalid_arg
      (Printf.sprintf "Resource.book(%s): request at %g after one at %g" t.name now
         t.last_request);
  t.last_request <- now;
  let finish = Float.max now t.free_at +. duration in
  t.free_at <- finish;
  t.busy <- t.busy +. duration;
  t.bookings <- t.bookings + 1;
  finish

let charge t ~now ~duration = ignore (book t ~now ~duration)

let backlog t ~now = Float.max 0.0 (t.free_at -. now)

let interrupt t ~now =
  if Float.is_nan now then invalid_arg "Resource.interrupt: NaN time";
  (* Queued-but-unexecuted work vanishes with the process; already-counted
     busy seconds stay counted (the port really was occupied until now). *)
  if t.free_at > now then t.free_at <- now;
  if t.last_request < now then t.last_request <- now

let busy_seconds t = t.busy

let bookings t = t.bookings

let utilization t ~horizon =
  if horizon <= 0.0 then 0.0 else Float.min 1.0 (t.busy /. horizon)
