module Table = Adept_util.Table
module Demand = Adept_model.Demand
module Rng = Adept_util.Rng

type selection_row = { policy : string; throughput : float }

type bandwidth_row = {
  bandwidth : float;
  rho : float;
  agents : int;
  depth : int;
  max_degree : int;
}

type demand_row = { demand : float; met : bool; rho : float; nodes_used : int }

type improver_row = {
  start : string;
  start_rho : float;
  improved_rho : float;
  improver_steps : int;
  heuristic_rho : float;
}

(* Selection-policy ablation on the Fig. 6 setting: heterogeneous servers
   make the policy matter — round-robin overloads the weak ones. *)
let run_selection (ctx : Common.context) =
  let n, clients, warmup, duration =
    match ctx.fidelity with
    | Common.Quick -> (40, 60, 0.5, 1.0)
    | Common.Full -> (100, 300, 1.5, 2.5)
  in
  let rng = Rng.create ctx.Common.seed in
  let platform = Adept_platform.Generator.grid5000_orsay ~rng ~n () in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  let tree =
    match
      Adept.Heuristic.plan_tree Common.params ~platform ~wapp ~demand:Demand.unbounded
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 310) in
  let measure policy selection =
    let scenario =
      Adept_sim.Scenario.make ~selection ~seed:ctx.seed ~params:Common.params ~platform
        ~client:(Adept_workload.Client.closed_loop job) tree
    in
    let r = Adept_sim.Scenario.run_fixed scenario ~clients ~warmup ~duration in
    { policy; throughput = r.Adept_sim.Scenario.throughput }
  in
  [
    measure "best-prediction" Adept_sim.Middleware.Best_prediction;
    measure "round-robin" Adept_sim.Middleware.Round_robin;
    measure "random" (Adept_sim.Middleware.Random_child (Rng.create (ctx.Common.seed + 1)));
  ]

(* Bandwidth sweep: the planner's shape shifts from deep hierarchies
   (cheap links let agents fan out) towards small stars as B drops. *)
let run_bandwidth (ctx : Common.context) =
  let n = match ctx.fidelity with Common.Quick -> 30 | Common.Full -> 100 in
  let bandwidths =
    match ctx.fidelity with
    | Common.Quick -> [ 10.0; 1000.0 ]
    | Common.Full -> [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ]
  in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  List.map
    (fun bandwidth ->
      let platform =
        Adept_platform.Generator.homogeneous ~bandwidth ~n ~power:Common.node_power ()
      in
      match
        Adept.Heuristic.plan Common.params ~platform ~wapp ~demand:Demand.unbounded
      with
      | Error e -> failwith e
      | Ok plan ->
          let m = Adept_hierarchy.Metrics.of_tree plan.Adept.Heuristic.tree in
          {
            bandwidth;
            rho = plan.Adept.Heuristic.predicted_rho;
            agents = m.Adept_hierarchy.Metrics.agents;
            depth = m.Adept_hierarchy.Metrics.depth;
            max_degree = m.Adept_hierarchy.Metrics.max_degree;
          })
    bandwidths

(* Demand sweep: resources used by the smallest plan meeting each target. *)
let run_demand (ctx : Common.context) =
  let n = match ctx.fidelity with Common.Quick -> 30 | Common.Full -> 100 in
  let platform = Adept_platform.Generator.grid5000_lyon ~n () in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  let unbounded =
    match
      Adept.Heuristic.plan Common.params ~platform ~wapp ~demand:Demand.unbounded
    with
    | Ok p -> p.Adept.Heuristic.predicted_rho
    | Error e -> failwith e
  in
  let fractions = [ 0.1; 0.25; 0.5; 0.75; 0.9; 1.1 ] in
  List.map
    (fun fraction ->
      let demand = fraction *. unbounded in
      match
        Adept.Heuristic.plan Common.params ~platform ~wapp
          ~demand:(Demand.rate demand)
      with
      | Error e -> failwith e
      | Ok plan ->
          {
            demand;
            met = plan.Adept.Heuristic.demand_met;
            rho = plan.Adept.Heuristic.predicted_rho;
            nodes_used = Adept_hierarchy.Tree.size plan.Adept.Heuristic.tree;
          })
    fractions

(* Climb from several starting deployments with the iterative improver of
   refs [6]/[7] and compare against planning from scratch. *)
let run_improver (ctx : Common.context) =
  (* 45 nodes in both fidelities: the climb is pure model computation, and
     smaller pools make the optimum a star, which local climbing reaches —
     the interesting regime needs the multi-level optimum. *)
  ignore ctx.Common.seed;
  let n = 45 in
  let platform = Adept_platform.Generator.grid5000_lyon ~n () in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  let sorted = Adept_platform.Platform.sorted_by_power_desc platform in
  let heuristic_rho =
    match Adept.Heuristic.plan Common.params ~platform ~wapp ~demand:Demand.unbounded with
    | Ok p -> p.Adept.Heuristic.predicted_rho
    | Error e -> failwith e
  in
  let starts =
    [
      ("1 agent + 1 server",
       Adept_hierarchy.Tree.star (List.hd sorted) [ List.nth sorted 1 ]);
      ("full star",
       match Adept.Baselines.star sorted with Ok t -> t | Error e -> failwith e);
      ("d-ary degree 3",
       match Adept.Baselines.dary ~degree:3 sorted with Ok t -> t | Error e -> failwith e);
    ]
  in
  List.map
    (fun (start, tree) ->
      let start_rho =
        Adept.Evaluate.rho_on Common.params ~platform ~wapp tree
      in
      match Adept.Improver.improve Common.params ~platform ~wapp tree with
      | Error e -> failwith e
      | Ok r ->
          {
            start;
            start_rho;
            improved_rho = r.Adept.Improver.predicted_rho;
            improver_steps = List.length r.Adept.Improver.steps;
            heuristic_rho;
          })
    starts

let report_selection _ctx rows =
  let table =
    List.fold_left
      (fun t r -> Table.add_row t [ r.policy; Table.cell_float r.throughput ])
      (Table.create [ "selection policy"; "measured req/s" ])
      rows
  in
  {
    Common.id = "ablation-selection";
    title = "Server-selection policy ablation (heterogeneous Fig. 6 setting)";
    paper_reference =
      "extension: DIET selects by performance prediction; the paper does not \
       evaluate alternatives";
    tables = [ ("policies", table) ];
    notes = [];
    series = [];
  }

let report_bandwidth _ctx rows =
  let table =
    List.fold_left
      (fun t (r : bandwidth_row) ->
        Table.add_row t
          [
            Table.cell_float ~decimals:0 r.bandwidth;
            Table.cell_float r.rho;
            string_of_int r.agents;
            string_of_int r.depth;
            string_of_int r.max_degree;
          ])
      (Table.create [ "B (Mbit/s)"; "planned rho"; "agents"; "depth"; "max degree" ])
      rows
  in
  {
    Common.id = "ablation-bandwidth";
    title = "Planner sensitivity to link bandwidth";
    paper_reference =
      "extension: the paper fixes homogeneous B per site; this sweeps it";
    tables = [ ("bandwidth sweep", table) ];
    notes = [];
    series = [];
  }

let report_demand _ctx rows =
  let table =
    List.fold_left
      (fun t (r : demand_row) ->
        Table.add_row t
          [
            Table.cell_float r.demand;
            string_of_bool r.met;
            Table.cell_float r.rho;
            string_of_int r.nodes_used;
          ])
      (Table.create [ "demand (req/s)"; "met"; "plan rho"; "nodes used" ])
      rows
  in
  {
    Common.id = "ablation-demand";
    title = "Demand-bounded planning: least resources meeting a target";
    paper_reference =
      "Section 4: \"the preferred deployment is the one using the least resources\"";
    tables = [ ("demand sweep", table) ];
    notes = [];
    series = [];
  }

let report_improver _ctx rows =
  let table =
    List.fold_left
      (fun t (r : improver_row) ->
        Table.add_row t
          [
            r.start;
            Table.cell_float r.start_rho;
            Table.cell_float r.improved_rho;
            string_of_int r.improver_steps;
            Table.cell_float r.heuristic_rho;
            Table.cell_percent (r.improved_rho /. r.heuristic_rho);
          ])
      (Table.create
         [
           "starting deployment"; "start rho"; "improved rho"; "steps";
           "heuristic rho"; "improver vs heuristic";
         ])
      rows
  in
  {
    Common.id = "ablation-improver";
    title = "Iterative bottleneck removal (refs [6]/[7]) vs planning from scratch";
    paper_reference =
      "Section 2: the iterative approach \"can only be used to improve the \
       throughput of a deployment that has been defined by other means\"; the \
       heuristic needs no starting deployment";
    tables = [ ("improver climbs", table) ];
    notes =
      [
        "the improver converges to local optima (it will not trade short-term \
         throughput for structure), which is the paper's motivation for \
         planning from scratch";
      ];
    series = [];
  }

let run_wan (ctx : Common.context) =
  let n_orsay, n_lyon =
    match ctx.Common.fidelity with Common.Quick -> (16, 12) | Common.Full -> (60, 40)
  in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  let bandwidths =
    match ctx.Common.fidelity with
    | Common.Quick -> [ 1.0; 1000.0 ]
    | Common.Full -> [ 0.1; 1.0; 5.0; 20.0; 100.0; 1000.0 ]
  in
  List.map
    (fun wan ->
      let rng = Rng.create ctx.Common.seed in
      let platform =
        Adept_platform.Generator.two_sites ~rng ~n_orsay ~n_lyon ~wan_bandwidth:wan ()
      in
      match
        Adept.Multi_cluster.plan Common.params ~platform ~wapp ~demand:Demand.unbounded
      with
      | Error e -> failwith e
      | Ok r ->
          let arrangement =
            match r.Adept.Multi_cluster.arrangement with
            | Adept.Multi_cluster.Single_site c -> "single:" ^ c
            | Adept.Multi_cluster.Federated c -> "federated:" ^ c
          in
          (wan, arrangement, r.Adept.Multi_cluster.predicted_rho))
    bandwidths

let report_wan _ctx rows =
  let table =
    List.fold_left
      (fun t (wan, arrangement, rho) ->
        Table.add_row t
          [ Table.cell_float ~decimals:1 wan; arrangement; Table.cell_float rho ])
      (Table.create [ "WAN (Mbit/s)"; "chosen arrangement"; "rho (req/s)" ])
      rows
  in
  {
    Common.id = "ablation-wan";
    title = "Multi-cluster planning across WAN bandwidths (future work of the paper)";
    paper_reference =
      "Section 6: \"we plan to deal with heterogeneous communication in future \
       works\" — this implements and sweeps it";
    tables = [ ("WAN sweep", table) ];
    notes =
      [
        "slow WANs make the planner keep the whole deployment inside one \
         cluster; fast WANs make the federated arrangement win";
      ];
    series = [];
  }

type mix_row = {
  planner_basis : string;  (* which effective Wapp the plan used *)
  basis_wapp : float;
  plan_nodes : int;
  measured : float;  (* req/s under the true mixed load *)
}

(* Multi-application planning: the paper's closing "deploy several
   middlewares and/or applications" item.  A mix of cheap and expensive
   requests is planned through a single effective Wapp; the arithmetic
   mean is rate-correct for sequential servers, the harmonic mean
   under-provisions. *)
let run_mix (ctx : Common.context) =
  let n = match ctx.Common.fidelity with Common.Quick -> 30 | Common.Full -> 60 in
  let clients, warmup, duration =
    match ctx.Common.fidelity with
    | Common.Quick -> (60, 2.0, 4.0)
    | Common.Full -> (150, 3.0, 8.0)
  in
  let platform = Adept_platform.Generator.grid5000_lyon ~n () in
  let cheap = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 100) in
  let pricey = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 500) in
  let mix = Adept_workload.Mix.weighted [ (cheap, 1.0); (pricey, 1.0) ] in
  let client = Adept_workload.Client.make mix in
  let bases =
    [
      ("arithmetic mean", Adept_workload.Mix.expected_wapp mix);
      ("harmonic mean", Adept_workload.Mix.harmonic_expected_wapp mix);
    ]
  in
  List.map
    (fun (planner_basis, basis_wapp) ->
      let tree =
        match
          Adept.Heuristic.plan_tree Common.params ~platform ~wapp:basis_wapp
            ~demand:Demand.unbounded
        with
        | Ok t -> t
        | Error e -> failwith e
      in
      let scenario =
        Adept_sim.Scenario.make ~seed:ctx.Common.seed ~params:Common.params ~platform
          ~client tree
      in
      let r = Adept_sim.Scenario.run_fixed scenario ~clients ~warmup ~duration in
      {
        planner_basis;
        basis_wapp;
        plan_nodes = Adept_hierarchy.Tree.size tree;
        measured = r.Adept_sim.Scenario.throughput;
      })
    bases

let report_mix _ctx rows =
  let table =
    List.fold_left
      (fun t (r : mix_row) ->
        Table.add_row t
          [
            r.planner_basis;
            Table.cell_float r.basis_wapp;
            string_of_int r.plan_nodes;
            Table.cell_float r.measured;
          ])
      (Table.create
         [ "planning basis"; "effective Wapp (MFlop)"; "plan nodes"; "measured req/s" ])
      rows
  in
  {
    Common.id = "ablation-mix";
    title = "Multi-application mixes: which effective Wapp should the planner use?";
    paper_reference =
      "Section 6: \"find a modelization to deploy several middlewares and/or \
       applications\" — a 50/50 mix of DGEMM 100 and DGEMM 500 planned through \
       one effective cost";
    tables = [ ("planning bases under the true mixed load", table) ];
    notes =
      [
        "sequential servers complete a mix at w / E[Wapp]: the arithmetic mean \
         provisions correctly, the harmonic mean plans for the cheap jobs and \
         starves the expensive ones";
      ];
    series = [];
  }

type latency_row = {
  arrival_rate : float;
  predicted_latency : float;  (* seconds; infinity when unstable *)
  measured_latency : float;
  stable : bool;
}

(* Latency-vs-load: the analytical M/D/1 companion to the throughput
   model, validated against open-loop simulation on the Fig. 4 star. *)
let run_latency (ctx : Common.context) =
  let platform = Adept_platform.Generator.grid5000_lyon ~n:3 () in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  let wapp = Adept_workload.Dgemm.(mflops (make 200)) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let scenario =
    Adept_sim.Scenario.make ~seed:ctx.Common.seed ~params:Common.params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  let rates, warmup, duration =
    match ctx.Common.fidelity with
    | Common.Quick -> ([ 30.0; 70.0 ], 3.0, 8.0)
    | Common.Full -> ([ 10.0; 30.0; 45.0; 60.0; 75.0; 85.0; 95.0 ], 5.0, 20.0)
  in
  List.map
    (fun rate ->
      let est =
        Adept.Latency.estimate Common.params ~bandwidth:Common.lyon_bandwidth ~wapp
          ~rate tree
      in
      let r = Adept_sim.Scenario.run_open scenario ~rate ~warmup ~duration in
      {
        arrival_rate = rate;
        predicted_latency = est.Adept.Latency.total;
        measured_latency =
          Option.value ~default:Float.nan r.Adept_sim.Scenario.mean_response;
        stable = est.Adept.Latency.stable;
      })
    rates

let report_latency _ctx rows =
  let table =
    List.fold_left
      (fun t (r : latency_row) ->
        Table.add_row t
          [
            Table.cell_float ~decimals:0 r.arrival_rate;
            (if r.stable then Printf.sprintf "%.4f" r.predicted_latency else "unstable");
            Printf.sprintf "%.4f" r.measured_latency;
          ])
      (Table.create [ "arrivals (req/s)"; "predicted mean (s)"; "measured mean (s)" ])
      rows
  in
  {
    Common.id = "ablation-latency";
    title = "Response time vs load: M/D/1 companion model vs simulation";
    paper_reference =
      "extension: the paper models throughput only; this adds the latency side \
       on the Fig. 4 two-server star (rho = 90.7 req/s)";
    tables = [ ("latency curve", table) ];
    notes =
      [
        "the estimate combines the zero-load message/compute path with an M/D/1 \
         wait per resource; it must diverge exactly where Eq. 16 saturates";
      ];
    series = [];
  }

type monitoring_row = {
  period : float option;  (* None = fresh state (Best_prediction) *)
  monitored_throughput : float;
}

(* Staleness of the monitoring database (the paper's footnote 1): how fast
   must servers report load before selection quality collapses? *)
let run_monitoring (ctx : Common.context) =
  let n, clients, warmup, duration =
    match ctx.Common.fidelity with
    | Common.Quick -> (40, 120, 1.0, 2.0)
    | Common.Full -> (100, 300, 2.0, 4.0)
  in
  let rng = Rng.create ctx.Common.seed in
  let platform = Adept_platform.Generator.grid5000_orsay ~rng ~n () in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 310) in
  let wapp = Adept_workload.Job.wapp job in
  let tree =
    match
      Adept.Heuristic.plan_tree Common.params ~platform ~wapp ~demand:Demand.unbounded
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let measure ?monitoring_period selection =
    let s =
      Adept_sim.Scenario.make ~selection ?monitoring_period ~seed:ctx.Common.seed
        ~params:Common.params ~platform
        ~client:(Adept_workload.Client.closed_loop job) tree
    in
    (Adept_sim.Scenario.run_fixed s ~clients ~warmup ~duration)
      .Adept_sim.Scenario.throughput
  in
  let fresh =
    { period = None; monitored_throughput = measure Adept_sim.Middleware.Best_prediction }
  in
  let periods =
    match ctx.Common.fidelity with
    | Common.Quick -> [ 0.01; 1.0 ]
    | Common.Full -> [ 0.01; 0.05; 0.2; 1.0; 5.0 ]
  in
  fresh
  :: List.map
       (fun period ->
         {
           period = Some period;
           monitored_throughput =
             measure ~monitoring_period:period Adept_sim.Middleware.Database;
         })
       periods

let report_monitoring _ctx rows =
  let table =
    List.fold_left
      (fun t (r : monitoring_row) ->
        Table.add_row t
          [
            (match r.period with
            | None -> "fresh state"
            | Some p -> Printf.sprintf "%.2fs reports" p);
            Table.cell_float r.monitored_throughput;
          ])
      (Table.create [ "monitoring"; "measured req/s" ])
      rows
  in
  {
    Common.id = "ablation-monitoring";
    title = "Monitoring-database staleness vs selection quality";
    paper_reference =
      "footnote 1: agents select from \"a list of servers maintained in the \
       database by frequent monitoring\" — this sweeps how frequent it must be";
    tables = [ ("monitoring period sweep", table) ];
    notes =
      [
        "stale load reports make concurrent requests herd onto whichever server \
         last reported idle; second-scale staleness costs an order of magnitude \
         of throughput on the Fig. 6 platform and is a plausible part of the \
         paper's own model-vs-testbed gap";
      ];
    series = [];
  }
