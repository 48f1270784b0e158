type state = Inactive | Pending of float | Firing of float

type edge = To_pending | To_firing | To_resolved

type transition = { at : float; rule : Rule.t; edge : edge; value : float }

type t = {
  rules : Rule.t list;
  timeseries : Timeseries.t;
  tracer : Tracer.t option;
  states : (string, state) Hashtbl.t;
  mutable transitions : transition list; (* newest first *)
}

let create ?tracer ~timeseries rules =
  let seen = Hashtbl.create 16 in
  let err = ref None in
  List.iter
    (fun (r : Rule.t) ->
      if !err = None then
        if Hashtbl.mem seen r.Rule.name then
          err := Some (Printf.sprintf "duplicate rule name %S" r.Rule.name)
        else begin
          Hashtbl.add seen r.Rule.name ();
          let w = Rule.max_window r in
          if w > Timeseries.retention timeseries then
            err :=
              Some
                (Printf.sprintf
                   "rule %S needs a %g s window but the store only retains %g s"
                   r.Rule.name w
                   (Timeseries.retention timeseries))
        end)
    rules;
  match !err with
  | Some m -> Error m
  | None ->
      let states = Hashtbl.create (List.length rules) in
      List.iter (fun (r : Rule.t) -> Hashtbl.replace states r.Rule.name Inactive) rules;
      Ok { rules; timeseries; tracer; states; transitions = [] }

let timeseries t = t.timeseries

let record t ~at rule edge value =
  t.transitions <- { at; rule; edge; value } :: t.transitions;
  match t.tracer with
  | None -> ()
  | Some tracer ->
      let name =
        match edge with
        | To_pending -> "alert-pending"
        | To_firing -> "alert-fired"
        | To_resolved -> "alert-resolved"
      in
      Tracer.event tracer ~at
        ~labels:
          (Label.v
             [
               (Semconv.l_alertname, rule.Rule.name);
               (Semconv.l_severity, Rule.severity_name rule.Rule.severity);
             ])
        name

let eval t ~now =
  List.iter
    (fun (rule : Rule.t) ->
      let lhs = Timeseries.eval t.timeseries ~now rule.Rule.lhs in
      let rhs = Timeseries.eval t.timeseries ~now rule.Rule.rhs in
      let cond =
        match (lhs, rhs) with
        | Some a, Some b -> (
            match rule.Rule.cmp with Rule.Gt -> a > b | Rule.Lt -> a < b)
        | _ -> false
      in
      let value = Option.value lhs ~default:Float.nan in
      let state = Hashtbl.find t.states rule.Rule.name in
      let fire since =
        Hashtbl.replace t.states rule.Rule.name (Firing since);
        record t ~at:now rule To_firing value
      in
      match (state, cond) with
      | Inactive, true ->
          if rule.Rule.for_duration <= 0. then fire now
          else begin
            Hashtbl.replace t.states rule.Rule.name (Pending now);
            record t ~at:now rule To_pending value
          end
      | Pending since, true ->
          (* a hair of float slack so for=k*interval fires on tick k *)
          if now -. since >= rule.Rule.for_duration -. 1e-9 then fire since
      | Firing _, true -> ()
      | Inactive, false -> ()
      | Pending _, false -> Hashtbl.replace t.states rule.Rule.name Inactive
      | Firing _, false ->
          Hashtbl.replace t.states rule.Rule.name Inactive;
          record t ~at:now rule To_resolved value)
    t.rules

let state t name = Hashtbl.find_opt t.states name

let states t =
  List.map (fun (r : Rule.t) -> (r, Hashtbl.find t.states r.Rule.name)) t.rules

let firing_names t =
  List.filter_map
    (fun (r : Rule.t) ->
      match Hashtbl.find t.states r.Rule.name with
      | Firing _ -> Some r.Rule.name
      | _ -> None)
    t.rules

let transitions t = List.rev t.transitions

let firing_intervals t =
  (* walk the chronological log pairing each To_firing with the next
     To_resolved of the same rule *)
  let open_at = Hashtbl.create 8 in
  let intervals = ref [] in
  List.iter
    (fun tr ->
      match tr.edge with
      | To_pending -> ()
      | To_firing -> Hashtbl.replace open_at tr.rule.Rule.name (tr.rule, tr.at)
      | To_resolved -> (
          match Hashtbl.find_opt open_at tr.rule.Rule.name with
          | Some (rule, fired) ->
              Hashtbl.remove open_at tr.rule.Rule.name;
              intervals := (rule, fired, Some tr.at) :: !intervals
          | None -> ()))
    (transitions t);
  let still_open =
    Hashtbl.fold (fun _ (rule, fired) acc -> (rule, fired, None) :: acc) open_at []
  in
  List.sort
    (fun (_, a, _) (_, b, _) -> Float.compare a b)
    (List.rev_append !intervals still_open)
