type id = int

type t = { id : id; name : string; power : float; cluster : string }

let make ~id ~name ~power ?(cluster = "default") () =
  if power <= 0.0 || not (Float.is_finite power) then
    invalid_arg "Node.make: power must be positive and finite";
  if id < 0 then invalid_arg "Node.make: id must be non-negative";
  if name = "" then invalid_arg "Node.make: name must be non-empty";
  { id; name; power; cluster }

let id t = t.id
let name t = t.name
let power t = t.power
let cluster t = t.cluster

let with_power t power =
  if power <= 0.0 || not (Float.is_finite power) then
    invalid_arg "Node.with_power: power must be positive and finite";
  { t with power }

let compare_by_power_desc a b =
  match Float.compare b.power a.power with 0 -> Int.compare a.id b.id | c -> c

let equal a b = a.id = b.id && a.name = b.name && a.power = b.power && a.cluster = b.cluster

let pp ppf t = Format.fprintf ppf "%s#%d(%.0f MFlop/s)" t.name t.id t.power
