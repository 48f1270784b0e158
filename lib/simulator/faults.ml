open Adept_platform
module Rng = Adept_util.Rng

type event_kind = Crash | Recover

type node_event = { node : Node.id; at : float; kind : event_kind }

type degradation = { from_ : float; until : float; factor : float }

type t = {
  node_events : node_event list;
  degradations : degradation list;
  drop_probability : float;
  loss_seed : int;
  timeout : float;
  service_timeout : float;
  max_retries : int;
  backoff : float;
  patience : float;
}

let none =
  {
    node_events = [];
    degradations = [];
    drop_probability = 0.0;
    loss_seed = 0;
    timeout = 0.5;
    service_timeout = 5.0;
    max_retries = 3;
    backoff = 2.0;
    patience = 0.25;
  }

let is_none t =
  t.node_events = [] && t.degradations = [] && t.drop_probability = 0.0

module Error = Adept.Error

let ( let* ) = Result.bind

let positive_finite name v =
  if v <= 0.0 || not (Float.is_finite v) then
    Error (Error.invalid_input "Faults.make: %s must be positive and finite, got %g" name v)
  else Ok ()

let make ?(timeout = none.timeout) ?(service_timeout = none.service_timeout)
    ?(max_retries = none.max_retries) ?(backoff = none.backoff)
    ?(patience = none.patience) () =
  let* () = positive_finite "timeout" timeout in
  let* () = positive_finite "service_timeout" service_timeout in
  let* () = positive_finite "patience" patience in
  let* () =
    if max_retries < 0 then
      Error (Error.invalid_input "Faults.make: max_retries must be >= 0, got %d" max_retries)
    else Ok ()
  in
  let* () =
    if backoff < 1.0 || not (Float.is_finite backoff) then
      Error (Error.invalid_input "Faults.make: backoff must be >= 1, got %g" backoff)
    else Ok ()
  in
  Ok { none with timeout; service_timeout; max_retries; backoff; patience }

let make_exn ?timeout ?service_timeout ?max_retries ?backoff ?patience () =
  match make ?timeout ?service_timeout ?max_retries ?backoff ?patience () with
  | Ok t -> t
  | Error e -> invalid_arg (Error.to_string e)

(* Stable chronology: time, then node id, then Crash before Recover, so
   schedules built in any insertion order replay identically. *)
let sort_events events =
  let kind_rank = function Crash -> 0 | Recover -> 1 in
  List.stable_sort
    (fun a b ->
      match Float.compare a.at b.at with
      | 0 -> (
          match Int.compare a.node b.node with
          | 0 -> Int.compare (kind_rank a.kind) (kind_rank b.kind)
          | c -> c)
      | c -> c)
    events

let add_events t events = { t with node_events = sort_events (events @ t.node_events) }

let crash ?recover_at ~node ~at t =
  if at < 0.0 || Float.is_nan at then
    invalid_arg "Faults.crash: crash time must be non-negative";
  if node < 0 then invalid_arg "Faults.crash: negative node id";
  let events =
    match recover_at with
    | None -> [ { node; at; kind = Crash } ]
    | Some r ->
        if r <= at || not (Float.is_finite r) then
          invalid_arg "Faults.crash: recover_at must be after the crash";
        [ { node; at; kind = Crash }; { node; at = r; kind = Recover } ]
  in
  add_events t events

let degrade ~from_ ~until ~factor t =
  if from_ < 0.0 || until <= from_ || not (Float.is_finite until) then
    invalid_arg "Faults.degrade: need 0 <= from_ < until";
  if factor <= 0.0 || factor > 1.0 then
    invalid_arg "Faults.degrade: factor must be in (0, 1]";
  { t with degradations = { from_; until; factor } :: t.degradations }

let with_message_loss ~probability ~seed t =
  if probability < 0.0 || probability >= 1.0 || Float.is_nan probability then
    invalid_arg "Faults.with_message_loss: probability must be in [0, 1)";
  { t with drop_probability = probability; loss_seed = seed }

let seeded_crashes ~rng ~nodes ~rate ~mttr ~horizon t =
  if rate < 0.0 || not (Float.is_finite rate) then
    invalid_arg "Faults.seeded_crashes: rate must be non-negative and finite";
  if mttr <= 0.0 || not (Float.is_finite mttr) then
    invalid_arg "Faults.seeded_crashes: mttr must be positive";
  if horizon <= 0.0 || not (Float.is_finite horizon) then
    invalid_arg "Faults.seeded_crashes: horizon must be positive";
  if rate = 0.0 then t
  else
    let events = ref [] in
    List.iter
      (fun node ->
        let rec walk now =
          let crash_at = now +. Rng.exponential rng ~mean:(1.0 /. rate) in
          if crash_at < horizon then begin
            events := { node; at = crash_at; kind = Crash } :: !events;
            let recover_at = crash_at +. Rng.exponential rng ~mean:mttr in
            if recover_at < horizon then begin
              events := { node; at = recover_at; kind = Recover } :: !events;
              walk recover_at
            end
          end
        in
        walk 0.0)
      nodes;
    add_events t !events

let bandwidth_factor t ~now =
  List.fold_left
    (fun acc w -> if now >= w.from_ && now < w.until then acc *. w.factor else acc)
    1.0 t.degradations

let events_before t ~horizon =
  List.filter (fun e -> e.at < horizon) t.node_events
