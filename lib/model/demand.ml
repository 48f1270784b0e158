type t = Unbounded | Rate of float

let rate r =
  if r <= 0.0 || not (Float.is_finite r) then
    invalid_arg "Demand.rate: rate must be positive and finite";
  Rate r

let unbounded = Unbounded

let cap t rho = match t with Unbounded -> rho | Rate r -> Float.min rho r

let is_met t rho = match t with Unbounded -> false | Rate r -> rho >= r

let min_target t x = match t with Unbounded -> x | Rate r -> Float.min r x

let equal a b =
  match (a, b) with
  | Unbounded, Unbounded -> true
  | Rate x, Rate y -> x = y
  | Unbounded, Rate _ | Rate _, Unbounded -> false
