type t = { mutable clock : float; queue : (unit -> unit) Event_queue.t }

let create () = { clock = 0.0; queue = Event_queue.create () }

let now t = t.clock

let schedule_at t ~time callback =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  Event_queue.add t.queue ~time callback

let schedule t ~delay callback =
  if delay < 0.0 || Float.is_nan delay then
    invalid_arg "Engine.schedule: negative or NaN delay";
  schedule_at t ~time:(t.clock +. delay) callback

let schedule_every t ~interval ~until callback =
  if interval <= 0.0 || Float.is_nan interval then
    invalid_arg "Engine.schedule_every: interval must be > 0";
  let rec arm time =
    if time <= until then
      schedule_at t ~time (fun () ->
          callback ~now:time;
          arm (time +. interval))
  in
  arm (t.clock +. interval)

let pending t = Event_queue.size t.queue

type outcome = Exhausted | Horizon_reached | Event_limit

let run ?until ?max_events t =
  let horizon = Option.value ~default:Float.infinity until in
  let limit = Option.value ~default:max_int max_events in
  (* Allocation-free spin: [next_time]/[pop_min_exn] instead of the
     option-returning peek/pop pair — this loop runs once per simulated
     event, and the two [Some (time, payload)] boxes per event were a
     measurable slice of the simulator's minor-heap churn. *)
  let rec go executed =
    if executed >= limit then Event_limit
    else if Event_queue.is_empty t.queue then Exhausted
    else begin
      let time = Event_queue.next_time t.queue in
      if time > horizon then begin
        t.clock <- horizon;
        Horizon_reached
      end
      else begin
        let callback = Event_queue.pop_min_exn t.queue in
        t.clock <- time;
        callback ();
        go (executed + 1)
      end
    end
  in
  let outcome = go 0 in
  (match (outcome, until) with
  | Exhausted, Some h when t.clock < h -> t.clock <- h
  | _ -> ());
  outcome
