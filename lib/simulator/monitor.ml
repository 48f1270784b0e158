open Adept_platform
open Adept_hierarchy
module Params = Adept_model.Params
module Error = Adept.Error
module Obs = Adept_obs

type signals = {
  predicted_rho : float;
  rho_sched : float option;
  rho_service : float option;
  alive : int;
}

type provider = unit -> signals

type t = {
  interval : float;
  timeseries : Obs.Timeseries.t;
  alerts : Obs.Alert.t;
}

(* Series every monitored run scrapes regardless of the rule set: the
   dashboard's raw material and the model gauges the built-in rules
   compare against. *)
let base_selectors =
  [
    Obs.Rule.selector Obs.Semconv.requests_completed_total;
    Obs.Rule.selector Obs.Semconv.requests_issued_total;
    Obs.Rule.selector Obs.Semconv.requests_lost_total;
    Obs.Rule.selector Obs.Semconv.model_predicted_rho;
    Obs.Rule.selector Obs.Semconv.model_rho_sched;
    Obs.Rule.selector Obs.Semconv.model_rho_service;
    Obs.Rule.selector Obs.Semconv.alive_nodes;
  ]

let create ?(interval = 0.25) ?retention ?capacity ?tracer ?(selectors = [])
    rules =
  if interval < 0. || Float.is_nan interval then
    Error (Error.invalid_input "Monitor.create: interval must be >= 0, got %g" interval)
  else begin
    let max_window =
      List.fold_left
        (fun acc r -> Float.max acc (Obs.Rule.max_window r))
        0. rules
    in
    let retention =
      match retention with
      | Some r -> r
      | None ->
          (* twice the longest window plus slack so window starts stay
             inside retained history even between scrapes *)
          Float.max ((2. *. max_window) +. (10. *. Float.max interval 0.1)) 1.
    in
    if retention < max_window then
      Error
        (Error.invalid_input
           "Monitor.create: retention %g is shorter than the longest rule window %g"
           retention max_window)
    else
      let rule_selectors = List.concat_map Obs.Rule.selectors rules in
      let timeseries =
        Obs.Timeseries.create ?capacity ~retention
          (base_selectors @ rule_selectors @ selectors)
      in
      match Obs.Alert.create ?tracer ~timeseries rules with
      | Error m -> Error (Error.invalid_input "Monitor.create: %s" m)
      | Ok alerts -> Ok { interval; timeseries; alerts }
  end

let timeseries t = t.timeseries

let alerts t = t.alerts

let scrapes t = Obs.Timeseries.scrapes t.timeseries

let attach t ~engine ~registry ?provider ~horizon () =
  if t.interval > 0. then begin
    let scrapes_counter =
      Obs.Registry.counter registry Obs.Semconv.monitor_scrapes_total
    in
    let g name = Obs.Registry.gauge registry name in
    Engine.schedule_every engine ~interval:t.interval ~until:horizon
      (fun ~now ->
        (match provider with
        | None -> ()
        | Some f ->
            let s = f () in
            Obs.Gauge.set (g Obs.Semconv.model_predicted_rho) s.predicted_rho;
            (match s.rho_sched with
            | Some v -> Obs.Gauge.set (g Obs.Semconv.model_rho_sched) v
            | None -> ());
            (match s.rho_service with
            | Some v -> Obs.Gauge.set (g Obs.Semconv.model_rho_service) v
            | None -> ());
            Obs.Gauge.set (g Obs.Semconv.alive_nodes) (float_of_int s.alive));
        Obs.Counter.inc scrapes_counter;
        Obs.Timeseries.scrape t.timeseries ~registry ~now;
        Obs.Alert.eval t.alerts ~now)
  end

let signals_of ~params ~platform ~wapp ~tree ~middleware ?controller () =
  let tree, middleware =
    match controller with
    | Some c -> (Controller.tree c, Controller.middleware c)
    | None -> (tree, middleware)
  in
  let predicted_rho =
    (* [monitor_rho], not [predicted_rho]: while a canary bakes the fleet
       is split across two generations and the controller publishes the
       blended forecast the drift rule should judge against (outside a
       bake the two are equal). *)
    match controller with
    | Some c -> Controller.monitor_rho c
    | None -> Adept.Evaluate.rho_hetero params ~platform ~wapp tree
  in
  let rho_sched, rho_service =
    match Link.uniform_bandwidth (Platform.link platform) with
    | Some bandwidth -> (
        match Adept.Evaluate.bottleneck_element params ~bandwidth ~wapp tree with
        | be ->
            ( Some be.Adept.Evaluate.be_rho_sched,
              Some be.Adept.Evaluate.be_rho_service )
        | exception Invalid_argument _ -> (None, None))
    | None -> (None, None)
  in
  { predicted_rho; rho_sched; rho_service; alive = Middleware.alive_count middleware }

(* ------------------------------------------------------------------ *)
(* Built-in rules                                                     *)

let sel = Obs.Rule.selector

let node_sel metric node =
  Obs.Rule.selector
    ~labels:(Obs.Label.v [ Obs.Semconv.node_label node ])
    metric

let model_rules ?(tolerance = 0.25) ?(hold = 1.0) ?(cost_tolerance = 0.5)
    ?(headroom = 0.1) ?(window = 2.0) ~params ~wapp tree =
  let open Obs.Rule in
  let drift =
    deviation ~severity:Critical ~for_duration:hold "model-drift"
      ~measured:(Rate (sel Obs.Semconv.requests_completed_total, window))
      ~reference:(Last (sel Obs.Semconv.model_predicted_rho))
      ~tolerance
  in
  let headroom_rule =
    (* distance to the flip of Eq. 16's min: (sched - service) / service *)
    v ~severity:Info "sched-headroom"
      (Div
         ( Sub
             ( Last (sel Obs.Semconv.model_rho_sched),
               Last (sel Obs.Semconv.model_rho_service) ),
           Last (sel Obs.Semconv.model_rho_service) ))
      Lt (Const headroom)
  in
  let cost_rules =
    List.concat_map
      (fun (ec : Adept.Evaluate.element_cost) ->
        let node = Node.id ec.Adept.Evaluate.ec_node in
        let component name metric predicted =
          if predicted > 0. then
            [
              deviation ~severity:Warning ~for_duration:hold
                (Printf.sprintf "cost-drift/node-%d/%s" node name)
                ~measured:(Window_mean (node_sel metric node, window))
                ~reference:(Const predicted) ~tolerance:cost_tolerance;
            ]
          else []
        in
        component "wreq" Obs.Semconv.agent_request_compute_seconds
          ec.Adept.Evaluate.ec_wreq_s
        @ component "wrep" Obs.Semconv.agent_reply_compute_seconds
            ec.Adept.Evaluate.ec_wrep_s
        @ component "wpre" Obs.Semconv.server_prediction_seconds
            ec.Adept.Evaluate.ec_wpre_s
        @ component "service" Obs.Semconv.server_service_seconds
            ec.Adept.Evaluate.ec_service_s)
      (Adept.Evaluate.element_costs params ~wapp tree)
  in
  (drift :: cost_rules) @ [ headroom_rule ]

(* Distinct hierarchy levels that hold agents (their in-flight gauges
   are labelled by level). *)
let agent_levels tree =
  let levels = ref [] in
  let rec walk depth = function
    | Tree.Server _ -> ()
    | Tree.Agent (_, children) ->
        if not (List.mem depth !levels) then levels := depth :: !levels;
        List.iter (walk (depth + 1)) children
  in
  walk 0 tree;
  List.sort Int.compare !levels

let level_sel level =
  Obs.Rule.selector
    ~labels:(Obs.Label.v [ Obs.Semconv.level_label level ])
    Obs.Semconv.agent_inflight_requests

let default_selectors tree =
  base_selectors @ List.map level_sel (agent_levels tree)

let default_panels tree ~window =
  let open Obs.Rule in
  [
    Obs.Dashboard.panel ~unit_:"req/s" "throughput: measured vs Eq. 16"
      [
        ("measured", Rate (sel Obs.Semconv.requests_completed_total, window));
        ("predicted rho", Last (sel Obs.Semconv.model_predicted_rho));
      ];
    Obs.Dashboard.panel ~unit_:"req/s" "Eq. 16 sides"
      [
        ("rho_sched", Last (sel Obs.Semconv.model_rho_sched));
        ("rho_service", Last (sel Obs.Semconv.model_rho_service));
      ];
    Obs.Dashboard.panel ~unit_:"requests" "in-flight by level"
      (List.map
         (fun level -> (Printf.sprintf "level %d" level, Last (level_sel level)))
         (agent_levels tree));
    Obs.Dashboard.panel ~unit_:"req/s" "losses"
      [ ("lost", Rate (sel Obs.Semconv.requests_lost_total, window)) ];
    Obs.Dashboard.panel ~unit_:"elements" "alive"
      [ ("alive", Last (sel Obs.Semconv.alive_nodes)) ];
  ]
