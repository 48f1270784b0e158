(* Executes protocol requests and renders their results as text.  Both
   front ends run here: [adept serve] answers [adept query] requests
   with these functions, and the batch [adept plan]/[replan]/[observe]
   build the same request records and call the same functions, so a
   served answer equals the batch output by construction.  The CI smoke
   job still diffs the two paths end to end. *)

open Adept_platform
module Dgemm = Adept_workload.Dgemm

(* Every request is planned with the paper's calibrated DIET/Lyon
   parameters. *)
let params = Adept_model.Params.diet_lyon

let ( let* ) = Result.bind

let platform_of_spec = function
  | Protocol.Synthetic { nodes; power; bandwidth; heterogeneous; seed } -> (
      (* generator preconditions (n >= 1, positive power) surface as
         request errors, not crashes *)
      try
        if heterogeneous then
          let rng = Adept_util.Rng.create seed in
          Ok
            (Generator.background_loaded ~bandwidth ~rng ~n:nodes ~power
               ~load_fraction:0.65 ~load_levels:4 ())
        else Ok (Generator.homogeneous ~bandwidth ~n:nodes ~power ())
      with Invalid_argument msg -> Error msg)
  | Protocol.Catalog text ->
      Result.map_error (( ^ ) "cannot load platform: ") (Catalog.of_string text)

let wapp_of_dgemm n =
  try Ok (Dgemm.mflops (Dgemm.make n))
  with Invalid_argument msg -> Error msg

let demand_of = function
  | None -> Adept_model.Demand.unbounded
  | Some r -> Adept_model.Demand.rate r

let strategy_of_string s =
  Result.map_error Adept.Error.to_string (Adept.Planner.strategy_of_string s)

(* The [plan] subcommand's stdout: the plan summary, then the model
   report (uniform links) or the bare heterogeneous rho line. *)
let plan_text ~platform ~wapp (plan : Adept.Planner.plan) =
  let head = Format.asprintf "%a@." Adept.Planner.pp_plan plan in
  let body =
    match Link.uniform_bandwidth (Platform.link platform) with
    | Some bandwidth ->
        Format.asprintf "%s@."
          (Adept.Evaluate.report params ~bandwidth ~wapp plan.Adept.Planner.tree)
    | None ->
        Format.asprintf "rho (heterogeneous links) = %.2f req/s@."
          (Adept.Evaluate.rho_hetero params ~platform ~wapp
             plan.Adept.Planner.tree)
  in
  head ^ body

let run_plan ?pool ?shards ?prof strategy ~platform ~wapp ~demand =
  let result =
    match (strategy, pool) with
    | Adept.Planner.Heuristic, Some pool ->
        fst (Shard.plan ?shards ?prof ~pool params ~platform ~wapp ~demand)
    | _ -> Adept.Planner.run strategy params ~platform ~wapp ~demand
  in
  Result.map_error Adept.Error.to_string result

type planned = {
  platform : Platform.t;
  wapp : float;
  strategy : Adept.Planner.strategy;
  plan : Adept.Planner.plan;
}

let planned ?pool ?shards ?prof (p : Protocol.plan_params) =
  let* platform = platform_of_spec p.Protocol.spec in
  let* wapp = wapp_of_dgemm p.Protocol.dgemm in
  let* strategy = strategy_of_string p.Protocol.strategy in
  let demand = demand_of p.Protocol.demand in
  let* plan = run_plan ?pool ?shards ?prof strategy ~platform ~wapp ~demand in
  Ok { platform; wapp; strategy; plan }

let plan ?pool ?shards ?prof p =
  let* { platform; wapp; plan; _ } = planned ?pool ?shards ?prof p in
  let text =
    Prof.time prof ~stage:"render" (fun () -> plan_text ~platform ~wapp plan)
  in
  Ok (text, plan.Adept.Planner.predicted_rho, plan.Adept.Planner.nodes_used)

let replan (r : Protocol.replan_params) =
  if r.Protocol.r_failed = [] then
    Error "replan: pass at least one failed node id"
  else
    let* platform = platform_of_spec r.Protocol.r_spec in
    let* wapp = wapp_of_dgemm r.Protocol.r_dgemm in
    let* strategy = strategy_of_string r.Protocol.r_strategy in
    let demand = demand_of r.Protocol.r_demand in
    let* result =
      Result.map_error Adept.Error.to_string
        (Adept.Planner.replan strategy params ~platform ~wapp ~demand
           ~failed:r.Protocol.r_failed ())
    in
    let text =
      Format.asprintf "%a@." Adept.Planner.pp_replan result
      ^ Format.asprintf "%a@." Adept_hierarchy.Tree.pp_compact
          result.Adept.Planner.replanned.Adept.Planner.tree
    in
    Ok (text, result.Adept.Planner.rho_after)

type observed = {
  text : string;
  throughput : float;
  registry : Adept_obs.Registry.t;
  report : Adept_obs.Report.t;
}

let observed (o : Protocol.observe_params) =
  let* { platform; wapp; strategy; plan } =
    planned
      {
        Protocol.spec = o.Protocol.o_spec;
        dgemm = o.Protocol.o_dgemm;
        demand = o.Protocol.o_demand;
        strategy = o.Protocol.o_strategy;
        use_cache = true;
      }
  in
  let tree = plan.Adept.Planner.tree in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.asprintf "%a@." Adept.Planner.pp_plan plan);
  let job = Adept_workload.Job.of_dgemm (Dgemm.make o.Protocol.o_dgemm) in
  let registry = Adept_obs.Registry.create () in
  let strategy_labels =
    Adept_obs.Label.v
      [ (Adept_obs.Semconv.l_strategy, Adept.Planner.strategy_name strategy) ]
  in
  Adept_obs.Counter.inc
    (Adept_obs.Registry.counter registry ~labels:strategy_labels
       Adept_obs.Semconv.planner_plans_total);
  Adept_obs.Counter.inc
    ~by:(float_of_int plan.Adept.Planner.evaluations)
    (Adept_obs.Registry.counter registry ~labels:strategy_labels
       Adept_obs.Semconv.planner_evaluations_total);
  let scenario =
    Adept_sim.Scenario.make ~seed:o.Protocol.o_seed ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job)
      tree
  in
  let tracer = Adept_obs.Tracer.create () in
  let trace = Adept_sim.Trace.create ~tracer () in
  let r =
    Adept_sim.Scenario.run_fixed ~trace ~registry scenario
      ~clients:o.Protocol.o_clients ~warmup:o.Protocol.o_warmup
      ~duration:o.Protocol.o_duration
  in
  Buffer.add_string buf
    (Printf.sprintf
       "simulated: %d clients -> %.2f req/s over %.1fs after %.1fs warm-up\n"
       o.Protocol.o_clients r.Adept_sim.Scenario.throughput
       o.Protocol.o_duration o.Protocol.o_warmup);
  Buffer.add_string buf
    (Printf.sprintf "trace buffer: %d item(s), %d dropped\n\n"
       (Adept_obs.Tracer.length tracer)
       (Adept_obs.Tracer.dropped tracer));
  let report = Adept_obs.Report.build ~registry ~params ~platform ~wapp ~tree in
  Buffer.add_string buf (Adept_obs.Report.render report);
  Ok
    {
      text = Buffer.contents buf;
      throughput = r.Adept_sim.Scenario.throughput;
      registry;
      report;
    }

let observe o =
  Result.map (fun { text; throughput; _ } -> (text, throughput)) (observed o)
