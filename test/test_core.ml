(* Tests for the core planner library: scheduling/service power, model
   evaluation, baselines, the heuristic, the homogeneous optimal planner,
   the exhaustive oracle and the unified planner. *)

open Adept
module Params = Adept_model.Params
module Demand = Adept_model.Demand
module Node = Adept_platform.Node
module Platform = Adept_platform.Platform
module Generator = Adept_platform.Generator
module Tree = Adept_hierarchy.Tree
module Validate = Adept_hierarchy.Validate
module Metrics = Adept_hierarchy.Metrics
module Rng = Adept_util.Rng

let params = Params.diet_lyon

let b = 100.0

let dgemm n = Adept_workload.Dgemm.(mflops (make n))

let check_close ?(eps = 1e-9) name expected got =
  Alcotest.(check (float (eps *. Float.max 1.0 (Float.abs expected)))) name expected got

let node ?(power = 730.0) i = Node.make ~id:i ~name:(Printf.sprintf "n%d" i) ~power ()

let nodes ?power n = List.init n (fun i -> node ?power i)

(* ---------- Sched_power ---------- *)

let test_sched_power_matches_throughput () =
  let n = node 0 in
  check_close "agent term"
    (Adept_model.Throughput.agent_sched params ~bandwidth:b ~power:730.0 ~degree:5)
    (Sched_power.agent params ~bandwidth:b ~node:n ~children:5);
  check_close "server term"
    (Adept_model.Throughput.server_sched params ~bandwidth:b ~power:730.0)
    (Sched_power.server params ~bandwidth:b ~node:n)

let test_sort_nodes_power_desc () =
  let ns =
    [ node ~power:100.0 0; node ~power:900.0 1; node ~power:500.0 2 ]
  in
  Alcotest.(check (list int)) "strongest first" [ 1; 2; 0 ]
    (List.map Node.id (Sched_power.sort_nodes params ~bandwidth:b ns))

let test_sort_nodes_empty_and_single () =
  Alcotest.(check int) "empty" 0 (List.length (Sched_power.sort_nodes params ~bandwidth:b []));
  Alcotest.(check int) "single" 1
    (List.length (Sched_power.sort_nodes params ~bandwidth:b [ node 0 ]))

let test_supported_children () =
  let n = node 0 in
  (* floor equal to the degree-5 sched power supports exactly 5 children *)
  let floor = Sched_power.agent params ~bandwidth:b ~node:n ~children:5 in
  Alcotest.(check int) "exact capacity" 5
    (Sched_power.supported_children params ~bandwidth:b ~node:n ~floor ~max_children:100);
  Alcotest.(check int) "impossible floor" 0
    (Sched_power.supported_children params ~bandwidth:b ~node:n ~floor:1e9 ~max_children:100);
  Alcotest.(check int) "trivial floor capped" 7
    (Sched_power.supported_children params ~bandwidth:b ~node:n ~floor:0.0 ~max_children:7)

(* ---------- Service_power ---------- *)

let test_service_power () =
  check_close "matches eq 15"
    (Adept_model.Throughput.service params ~bandwidth:b
       [ { Adept_model.Throughput.power = 730.0; wapp = 16.0 } ])
    (Service_power.of_servers params ~bandwidth:b ~wapp:16.0 [ node 0 ]);
  let base = Service_power.of_servers params ~bandwidth:b ~wapp:16.0 [ node 0 ] in
  let more = Service_power.marginal params ~bandwidth:b ~wapp:16.0 [ node 0 ] (node 1) in
  Alcotest.(check bool) "marginal adds" true (more > base)

(* ---------- Evaluate ---------- *)

let test_evaluate_star () =
  let t = Tree.star (node 0) [ node 1; node 2 ] in
  let spec = Evaluate.spec_of_tree ~wapp:16.0 t in
  Alcotest.(check int) "one agent" 1 (List.length spec.Adept_model.Throughput.agents);
  Alcotest.(check int) "two servers" 2 (List.length spec.Adept_model.Throughput.servers);
  let expected =
    Adept_model.Throughput.platform params ~bandwidth:b
      {
        Adept_model.Throughput.agents = [ (730.0, 2) ];
        servers =
          [
            { Adept_model.Throughput.power = 730.0; wapp = 16.0 };
            { Adept_model.Throughput.power = 730.0; wapp = 16.0 };
          ];
      }
  in
  check_close "matches direct Eq. 16" expected (Evaluate.rho params ~bandwidth:b ~wapp:16.0 t)

let test_evaluate_no_servers () =
  let t = Tree.agent (node 0) [ Tree.agent (node 1) [] ] in
  Alcotest.(check bool) "agent without children rejected" true
    (match Evaluate.spec_of_tree ~wapp:1.0 t with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_evaluate_report () =
  let t = Tree.star (node 0) [ node 1 ] in
  let report = Evaluate.report params ~bandwidth:b ~wapp:16.0 t in
  Alcotest.(check bool) "mentions bottleneck" true
    (Astring.String.is_infix ~affix:"bottleneck" report)

(* ---------- rho_hetero / Multi_cluster ---------- *)

let plan_on platform wapp demand =
  match Heuristic.plan params ~platform ~wapp ~demand with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_rho_hetero_reduces_to_rho () =
  (* on a uniform-bandwidth platform the generalised model must equal Eq. 16 *)
  let rng = Rng.create 3 in
  let platform = Generator.grid5000_orsay ~rng ~n:20 () in
  let wapp = dgemm 310 in
  let tree = plan_on platform wapp Demand.unbounded in
  let tree = tree.Heuristic.tree in
  check_close "hetero = homogeneous on uniform links"
    (Evaluate.rho_on params ~platform ~wapp tree)
    (Evaluate.rho_hetero params ~platform ~wapp tree)

let test_rho_hetero_penalizes_slow_links () =
  (* the same shape scores lower when its links cross a slow WAN *)
  let rng = Rng.create 4 in
  let fast = Generator.two_sites ~rng ~n_orsay:6 ~n_lyon:6 ~wan_bandwidth:1000.0 () in
  let rng = Rng.create 4 in
  let slow = Generator.two_sites ~rng ~n_orsay:6 ~n_lyon:6 ~wan_bandwidth:0.5 () in
  let wapp = dgemm 310 in
  (* a star rooted in orsay spanning both sites *)
  let tree p = Result.get_ok (Baselines.star (Platform.nodes p)) in
  Alcotest.(check bool) "slow WAN lowers rho" true
    (Evaluate.rho_hetero params ~platform:slow ~wapp (tree slow)
    < Evaluate.rho_hetero params ~platform:fast ~wapp (tree fast))

let test_sub_platform () =
  let rng = Rng.create 5 in
  let platform = Generator.two_sites ~rng ~n_orsay:5 ~n_lyon:3 ~wan_bandwidth:10.0 () in
  match Multi_cluster.sub_platform platform ~cluster:"lyon" with
  | None -> Alcotest.fail "lyon exists"
  | Some (sub, mapping) ->
      Alcotest.(check int) "three nodes" 3 (Platform.size sub);
      Alcotest.(check int) "mapping size" 3 (Array.length mapping);
      Alcotest.(check string) "original cluster" "lyon" (Node.cluster mapping.(0));
      Alcotest.(check bool) "intra bandwidth" true
        (Platform.uniform_bandwidth sub = 1000.0);
      Alcotest.(check bool) "missing cluster" true
        (Multi_cluster.sub_platform platform ~cluster:"nowhere" = None)

let test_multi_cluster_crossover () =
  let wapp = dgemm 310 in
  let plan_at wan =
    let rng = Rng.create 5 in
    let platform = Generator.two_sites ~rng ~n_orsay:16 ~n_lyon:12 ~wan_bandwidth:wan () in
    match Multi_cluster.plan params ~platform ~wapp ~demand:Demand.unbounded with
    | Ok r ->
        Alcotest.(check bool) "valid on platform" true
          (Validate.is_valid ~platform r.Multi_cluster.tree);
        r
    | Error e -> Alcotest.fail e
  in
  let slow = plan_at 0.5 and fast = plan_at 1000.0 in
  (match slow.Multi_cluster.arrangement with
  | Multi_cluster.Single_site _ -> ()
  | Multi_cluster.Federated _ -> Alcotest.fail "slow WAN should stay single-site");
  (match fast.Multi_cluster.arrangement with
  | Multi_cluster.Federated _ -> ()
  | Multi_cluster.Single_site _ -> Alcotest.fail "fast WAN should federate");
  Alcotest.(check bool) "federation buys throughput" true
    (fast.Multi_cluster.predicted_rho > slow.Multi_cluster.predicted_rho);
  Alcotest.(check bool) "all four candidates scored" true
    (List.length fast.Multi_cluster.candidates = 4)

let test_multi_cluster_single_site_platform () =
  (* degenerates to the heuristic on one cluster *)
  let platform = Generator.grid5000_lyon ~n:12 () in
  let wapp = dgemm 310 in
  match Multi_cluster.plan params ~platform ~wapp ~demand:Demand.unbounded with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let heur = plan_on platform wapp Demand.unbounded in
      check_close "same rho as plain heuristic" heur.Heuristic.predicted_rho
        r.Multi_cluster.predicted_rho;
      (match r.Multi_cluster.arrangement with
      | Multi_cluster.Single_site "lyon" -> ()
      | _ -> Alcotest.fail "expected single:lyon")

(* ---------- Baselines ---------- *)

let test_star_baseline () =
  match Baselines.star (nodes 5) with
  | Ok t ->
      Alcotest.(check int) "degree" 4 (Tree.degree t);
      Alcotest.(check bool) "valid" true (Validate.is_valid t)
  | Error e -> Alcotest.fail e

let test_star_too_small () =
  Alcotest.(check bool) "one node fails" true (Result.is_error (Baselines.star (nodes 1)))

let test_balanced_baseline () =
  match Baselines.balanced ~agents:3 (nodes 14) with
  | Ok t ->
      let m = Metrics.of_tree t in
      Alcotest.(check int) "agents" 4 m.Metrics.agents;
      Alcotest.(check int) "servers" 10 m.Metrics.servers;
      Alcotest.(check int) "depth" 2 m.Metrics.depth;
      Alcotest.(check bool) "valid" true (Validate.is_valid t);
      (* even distribution: 10 servers over 3 agents = 4/3/3 *)
      Alcotest.(check int) "max degree" 4 m.Metrics.max_degree
  | Error e -> Alcotest.fail e

let test_balanced_too_small () =
  Alcotest.(check bool) "cannot host 2 per agent" true
    (Result.is_error (Baselines.balanced ~agents:3 (nodes 8)))

let test_dary_star_case () =
  match Baselines.dary ~degree:10 (nodes 6) with
  | Ok t ->
      Alcotest.(check int) "degree capped to star" 5 (Tree.degree t);
      Alcotest.(check bool) "valid" true (Validate.is_valid t)
  | Error e -> Alcotest.fail e

let test_dary_exact () =
  (* 13 nodes, degree 3: root + 3 agents + 9 servers is a perfect tree *)
  match Baselines.dary ~degree:3 (nodes 13) with
  | Ok t ->
      let m = Metrics.of_tree t in
      Alcotest.(check int) "all used" 13 m.Metrics.nodes;
      Alcotest.(check int) "agents" 4 m.Metrics.agents;
      Alcotest.(check int) "depth" 2 m.Metrics.depth;
      Alcotest.(check bool) "valid" true (Validate.is_valid t)
  | Error e -> Alcotest.fail e

let test_dary_frontier_fixup () =
  (* sizes that leave a single-child internal node must still validate *)
  List.iter
    (fun (n, d) ->
      match Baselines.dary ~degree:d (nodes n) with
      | Ok t ->
          Alcotest.(check bool)
            (Printf.sprintf "valid n=%d d=%d" n d)
            true (Validate.is_valid t);
          Alcotest.(check int) (Printf.sprintf "spans n=%d d=%d" n d) n (Tree.size t)
      | Error e -> Alcotest.fail e)
    [ (4, 2); (6, 2); (8, 3); (10, 4); (23, 5); (45, 14); (7, 1) ]

let test_dary_validation () =
  Alcotest.(check bool) "degree 0" true (Result.is_error (Baselines.dary ~degree:0 (nodes 5)));
  Alcotest.(check bool) "one node" true (Result.is_error (Baselines.dary ~degree:2 (nodes 1)))

let test_random_baseline_valid () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    match Baselines.random ~rng (nodes 12) with
    | Ok t -> Alcotest.(check bool) "valid" true (Validate.is_valid t)
    | Error e -> Alcotest.fail e
  done

(* ---------- Heuristic ---------- *)

let test_heuristic_degenerate_tiny_job () =
  (* DGEMM 10 is agent-limited: one agent, one server (paper Table 4 row 1) *)
  let platform = Generator.grid5000_lyon ~n:21 () in
  let r = plan_on platform (dgemm 10) Demand.unbounded in
  Alcotest.(check int) "two nodes" 2 (Tree.size r.Heuristic.tree);
  Alcotest.(check int) "one server" 1 (Tree.server_count r.Heuristic.tree)

let test_heuristic_star_for_huge_job () =
  (* DGEMM 1000 is service-limited: star over all nodes (Table 4 row 4) *)
  let platform = Generator.grid5000_lyon ~n:21 () in
  let r = plan_on platform (dgemm 1000) Demand.unbounded in
  Alcotest.(check int) "all nodes" 21 (Tree.size r.Heuristic.tree);
  Alcotest.(check int) "single agent" 1 (Tree.agent_count r.Heuristic.tree);
  Alcotest.(check int) "degree 20" 20 (Tree.degree r.Heuristic.tree)

let test_heuristic_matches_homogeneous_optimal () =
  (* Table 4: >= 89% of optimal; ours achieves 100% on all four rows *)
  List.iter
    (fun (size, n) ->
      let platform = Generator.grid5000_lyon ~n () in
      let wapp = dgemm size in
      let heur = plan_on platform wapp Demand.unbounded in
      let homo =
        match Homogeneous.plan params ~platform ~wapp ~demand:Demand.unbounded with
        | Ok h -> h
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool)
        (Printf.sprintf "dgemm %d: heuristic >= 0.89 * homogeneous" size)
        true
        (heur.Heuristic.predicted_rho >= 0.89 *. homo.Homogeneous.predicted_rho))
    [ (10, 21); (100, 25); (310, 45); (1000, 21) ]

let test_heuristic_valid_and_beats_baselines () =
  let rng = Rng.create 31 in
  let platform = Generator.grid5000_orsay ~rng ~n:60 () in
  let wapp = dgemm 310 in
  let r = plan_on platform wapp Demand.unbounded in
  Alcotest.(check bool) "validates on platform" true
    (Validate.is_valid ~platform r.Heuristic.tree);
  let rho_of tree = Evaluate.rho_on params ~platform ~wapp tree in
  check_close "predicted matches evaluate" (rho_of r.Heuristic.tree)
    r.Heuristic.predicted_rho;
  let sorted = Platform.sorted_by_power_desc platform in
  let star = Result.get_ok (Baselines.star sorted) in
  let balanced = Result.get_ok (Baselines.balanced ~agents:5 sorted) in
  Alcotest.(check bool) "beats star" true (r.Heuristic.predicted_rho >= rho_of star -. 1e-9);
  Alcotest.(check bool) "beats balanced" true
    (r.Heuristic.predicted_rho >= rho_of balanced -. 1e-9)

let test_heuristic_demand_met_minimal () =
  let platform = Generator.grid5000_lyon ~n:50 () in
  let wapp = dgemm 310 in
  let unbounded = plan_on platform wapp Demand.unbounded in
  let half = unbounded.Heuristic.predicted_rho /. 2.0 in
  let bounded = plan_on platform wapp (Demand.rate half) in
  Alcotest.(check bool) "demand met" true bounded.Heuristic.demand_met;
  Alcotest.(check bool) "meets the rate" true (bounded.Heuristic.predicted_rho >= half);
  Alcotest.(check bool) "uses fewer nodes" true
    (Tree.size bounded.Heuristic.tree < Tree.size unbounded.Heuristic.tree)

let test_heuristic_demand_unreachable () =
  let platform = Generator.grid5000_lyon ~n:10 () in
  let r = plan_on platform (dgemm 310) (Demand.rate 1e9) in
  Alcotest.(check bool) "demand not met" false r.Heuristic.demand_met;
  Alcotest.(check bool) "still produces best effort" true (r.Heuristic.predicted_rho > 0.0)

let test_heuristic_probes_recorded () =
  let platform = Generator.grid5000_lyon ~n:10 () in
  let r = plan_on platform (dgemm 310) Demand.unbounded in
  Alcotest.(check bool) "probes non-empty" true (r.Heuristic.probes <> []);
  Alcotest.(check bool) "some feasible probe" true
    (List.exists (fun p -> p.Heuristic.feasible) r.Heuristic.probes)

let test_heuristic_errors () =
  let one = Platform.of_powers [ 100.0 ] in
  Alcotest.(check bool) "single node" true
    (Result.is_error (Heuristic.plan params ~platform:one ~wapp:1.0 ~demand:Demand.unbounded));
  let p2 = Platform.of_powers [ 100.0; 100.0 ] in
  Alcotest.(check bool) "bad wapp" true
    (Result.is_error (Heuristic.plan params ~platform:p2 ~wapp:0.0 ~demand:Demand.unbounded))

let test_heuristic_heterogeneous_links_rejected () =
  let link = Adept_platform.Link.inter_cluster ~default:100.0 [ (("a", "b"), 10.0) ] in
  let ns =
    [
      Node.make ~id:0 ~name:"x" ~power:100.0 ~cluster:"a" ();
      Node.make ~id:1 ~name:"y" ~power:100.0 ~cluster:"b" ();
    ]
  in
  let platform = Platform.create ~link ns in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Heuristic.plan params ~platform ~wapp:1.0 ~demand:Demand.unbounded))

let test_heuristic_scales_to_thousands () =
  let rng = Rng.create 1 in
  let platform = Generator.grid5000_orsay ~rng ~n:2000 () in
  let r = plan_on platform (dgemm 310) Demand.unbounded in
  Alcotest.(check bool) "valid at n=2000" true (Validate.is_valid ~platform r.Heuristic.tree);
  Alcotest.(check bool) "does not waste nodes once sched-bound" true
    (Tree.size r.Heuristic.tree < 2000);
  (* at this scale the strongest node's minimal-degree Eq. 14 term caps rho *)
  let cap =
    Sched_power.agent params ~bandwidth:1000.0
      ~node:(List.hd (Platform.sorted_by_power_desc platform))
      ~children:2
  in
  Alcotest.(check bool) "rho within the degree-2 sched cap" true
    (r.Heuristic.predicted_rho <= cap +. 1e-6)

let test_build_for_target () =
  let platform = Generator.grid5000_lyon ~n:45 () in
  let wapp = dgemm 310 in
  (match Heuristic.build_for_target params ~platform ~wapp ~target:300.0 with
  | None -> Alcotest.fail "300 req/s should be feasible on 45 nodes"
  | Some tree ->
      Alcotest.(check bool) "valid" true (Validate.is_valid ~platform tree);
      Alcotest.(check bool) "achieves target" true
        (Evaluate.rho_on params ~platform ~wapp tree >= 300.0));
  Alcotest.(check bool) "absurd target infeasible" true
    (Heuristic.build_for_target params ~platform ~wapp ~target:1e9 = None)

(* ---------- Homogeneous ---------- *)

let test_homogeneous_picks_best_degree () =
  let platform = Generator.grid5000_lyon ~n:21 () in
  match Homogeneous.plan params ~platform ~wapp:(dgemm 1000) ~demand:Demand.unbounded with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "degree 20 (star)" 20 r.Homogeneous.degree;
      Alcotest.(check int) "tried all degrees" 20 (List.length r.Homogeneous.per_degree);
      let best_by_scan =
        List.fold_left (fun acc (_, rho) -> Float.max acc rho) 0.0 r.Homogeneous.per_degree
      in
      check_close "winner is the max" best_by_scan r.Homogeneous.predicted_rho

let test_homogeneous_validates () =
  let platform = Generator.grid5000_lyon ~n:45 () in
  match Homogeneous.plan params ~platform ~wapp:(dgemm 310) ~demand:Demand.unbounded with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check bool) "valid" true (Validate.is_valid ~platform r.Homogeneous.tree)

(* ---------- Exhaustive ---------- *)

let test_exhaustive_counts () =
  (* 2 nodes: 2 hierarchies (either node can be the agent) *)
  Alcotest.(check int) "n=2" 2 (Exhaustive.count (nodes 2));
  (* enumeration of 3 nodes: subsets of size 2 give 3*2=6 stars; the full
     set gives 3 choices of agent with both others as servers = 3
     (partitions into two singletons) -- 2-node groups admit no subtree *)
  Alcotest.(check int) "n=3" 9 (Exhaustive.count (nodes 3))

let test_exhaustive_trees_valid () =
  Adept.Exhaustive.enumerate_subsets (nodes 5)
  |> Seq.iter (fun t -> Alcotest.(check bool) "valid" true (Validate.is_valid t))

let test_exhaustive_optimal_beats_heuristic () =
  let rng = Rng.create 77 in
  for seed = 1 to 5 do
    ignore seed;
    let powers = List.init 6 (fun _ -> Rng.float_in rng 100.0 1500.0) in
    let platform = Platform.of_powers ~link:(Adept_platform.Link.homogeneous ~bandwidth:100.0 ()) powers in
    let wapp = dgemm 310 in
    match Exhaustive.optimal params ~platform ~wapp () with
    | Error e -> Alcotest.fail e
    | Ok (_, opt_rho) ->
        let heur = plan_on platform wapp Demand.unbounded in
        Alcotest.(check bool) "optimal >= heuristic" true
          (opt_rho >= heur.Heuristic.predicted_rho -. 1e-9);
        Alcotest.(check bool) "heuristic >= 85% of optimal" true
          (heur.Heuristic.predicted_rho >= 0.85 *. opt_rho)
  done

let test_exhaustive_guard () =
  let platform = Generator.grid5000_lyon ~n:15 () in
  Alcotest.(check bool) "too large" true
    (Result.is_error (Exhaustive.optimal params ~platform ~wapp:1.0 ()))

(* ---------- Latency ---------- *)

let star2_lyon () =
  let platform = Generator.grid5000_lyon ~n:3 () in
  let ns = Platform.nodes platform in
  (platform, Tree.star (List.hd ns) (List.tl ns))

let test_latency_tracks_simulation () =
  let platform, tree = star2_lyon () in
  let wapp = dgemm 200 in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let scenario =
    Adept_sim.Scenario.make ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  List.iter
    (fun rate ->
      let est = Latency.estimate params ~bandwidth:b ~wapp ~rate tree in
      let r = Adept_sim.Scenario.run_open scenario ~rate ~warmup:4.0 ~duration:12.0 in
      let measured = Option.get r.Adept_sim.Scenario.mean_response in
      Alcotest.(check bool)
        (Printf.sprintf "rate %.0f: predicted %.4f vs measured %.4f within 30%%" rate
           est.Latency.total measured)
        true
        (Float.abs (est.Latency.total -. measured) /. measured < 0.3))
    [ 20.0; 45.0; 70.0 ]

let test_latency_monotone_in_rate () =
  let platform, tree = star2_lyon () in
  ignore platform;
  let wapp = dgemm 200 in
  let estimates =
    Latency.sweep params ~bandwidth:b ~wapp ~rates:[ 10.0; 40.0; 70.0; 85.0 ] tree
  in
  let rec increasing = function
    | (a : Latency.estimate) :: (b : Latency.estimate) :: rest ->
        a.Latency.total < b.Latency.total && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "latency grows with load" true (increasing estimates)

let test_latency_instability_at_rho () =
  let platform, tree = star2_lyon () in
  let wapp = dgemm 200 in
  let rho = Evaluate.rho_on params ~platform ~wapp tree in
  let below = Latency.estimate params ~bandwidth:b ~wapp ~rate:(0.95 *. rho) tree in
  let above = Latency.estimate params ~bandwidth:b ~wapp ~rate:(1.05 *. rho) tree in
  Alcotest.(check bool) "stable below rho" true below.Latency.stable;
  Alcotest.(check bool) "unstable above rho" false above.Latency.stable;
  Alcotest.(check bool) "infinite latency when unstable" true
    (above.Latency.total = Float.infinity)

let test_latency_validation () =
  let _, tree = star2_lyon () in
  Alcotest.(check bool) "zero rate" true
    (match Latency.estimate params ~bandwidth:b ~wapp:1.0 ~rate:0.0 tree with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Improver ---------- *)

let test_improver_climbs_from_degenerate () =
  let platform = Generator.grid5000_lyon ~n:20 () in
  let wapp = dgemm 310 in
  let sorted = Platform.sorted_by_power_desc platform in
  let start = Tree.star (List.hd sorted) [ List.nth sorted 1 ] in
  match Improver.improve params ~platform ~wapp start with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let start_rho = Evaluate.rho_on params ~platform ~wapp start in
      Alcotest.(check bool) "strictly improves" true
        (r.Improver.predicted_rho > start_rho);
      Alcotest.(check bool) "steps recorded" true (r.Improver.steps <> []);
      Alcotest.(check bool) "still valid" true (Validate.is_valid ~platform r.Improver.tree);
      (* every recorded step must show strict improvement *)
      List.iter
        (fun (s : Improver.step) ->
          Alcotest.(check bool) "step improved" true (s.Improver.rho_after > s.Improver.rho_before))
        r.Improver.steps

let test_improver_service_bottleneck_adds_servers () =
  let platform = Generator.grid5000_lyon ~n:10 () in
  let wapp = dgemm 1000 in
  (* service-limited: the improver must add servers until nodes run out *)
  let sorted = Platform.sorted_by_power_desc platform in
  let start = Tree.star (List.hd sorted) [ List.nth sorted 1 ] in
  match Improver.improve params ~platform ~wapp start with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "uses the whole pool" 10 (Tree.size r.Improver.tree);
      Alcotest.(check bool) "all steps are server additions" true
        (List.for_all
           (fun (s : Improver.step) ->
             match s.Improver.action with
             | Improver.Added_server _ -> true
             | Improver.Split_agent _ | Improver.Removed_server _ -> false)
           r.Improver.steps)

let test_improver_splits_agent_bottleneck () =
  (* large platform, mid-size jobs: a full star is agent-limited, so the
     improver must split the root at least once *)
  let platform = Generator.homogeneous ~bandwidth:100.0 ~n:45 ~power:730.0 () in
  let wapp = dgemm 310 in
  let sorted = Platform.sorted_by_power_desc platform in
  let start =
    Tree.star (List.hd sorted) (List.filteri (fun i _ -> i >= 1 && i <= 40) sorted)
  in
  match Improver.improve params ~platform ~wapp start with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let start_rho = Evaluate.rho_on params ~platform ~wapp start in
      Alcotest.(check bool) "improved" true (r.Improver.predicted_rho > start_rho);
      Alcotest.(check bool) "a split happened" true
        (List.exists
           (fun (s : Improver.step) ->
             match s.Improver.action with Improver.Split_agent _ -> true | _ -> false)
           r.Improver.steps)

let test_improver_splits_non_root_agent () =
  (* root with two mid agents; agent 1 carries 25 servers and its Eq. 14
     term (313 req/s) sits below the 27-server service power (329), so it
     is the bottleneck; two spare nodes allow a split *)
  let platform = Generator.homogeneous ~bandwidth:100.0 ~n:32 ~power:730.0 () in
  let ns = Array.of_list (Platform.nodes platform) in
  let servers lo hi = List.init (hi - lo + 1) (fun i -> Tree.server ns.(lo + i)) in
  let tree =
    Tree.agent ns.(0)
      [ Tree.agent ns.(1) (servers 3 27); Tree.agent ns.(2) (servers 28 29) ]
  in
  let wapp = dgemm 310 in
  match Improver.improve params ~platform ~wapp tree with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "improved" true
        (r.Improver.predicted_rho > Evaluate.rho_on params ~platform ~wapp tree);
      Alcotest.(check bool) "valid" true (Validate.is_valid ~platform r.Improver.tree);
      Alcotest.(check bool) "split the overloaded mid agent" true
        (List.exists
           (fun (s : Improver.step) ->
             match s.Improver.action with
             | Improver.Split_agent (agent, _) -> agent = 1
             | _ -> false)
           r.Improver.steps)

let test_improver_at_most_heuristic () =
  let platform = Generator.grid5000_lyon ~n:30 () in
  let wapp = dgemm 310 in
  let sorted = Platform.sorted_by_power_desc platform in
  let start = Tree.star (List.hd sorted) [ List.nth sorted 1 ] in
  let improved =
    match Improver.improve params ~platform ~wapp start with
    | Ok r -> r.Improver.predicted_rho
    | Error e -> Alcotest.fail e
  in
  let heur = plan_on platform wapp Demand.unbounded in
  Alcotest.(check bool) "local climb <= from-scratch plan" true
    (improved <= heur.Heuristic.predicted_rho +. 1e-9)

let test_improver_max_iterations () =
  let platform = Generator.grid5000_lyon ~n:30 () in
  let wapp = dgemm 1000 in
  let sorted = Platform.sorted_by_power_desc platform in
  let start = Tree.star (List.hd sorted) [ List.nth sorted 1 ] in
  match Improver.improve ~max_iterations:3 params ~platform ~wapp start with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "stopped at limit" 3 (List.length r.Improver.steps);
      Alcotest.(check bool) "not converged" false r.Improver.converged

let test_improver_rejects_invalid_input () =
  let platform = Generator.grid5000_lyon ~n:5 () in
  let bad = Tree.server (Platform.node platform 0) in
  Alcotest.(check bool) "invalid input" true
    (Result.is_error (Improver.improve params ~platform ~wapp:1.0 bad))

(* ---------- Planner ---------- *)

let test_planner_strategy_strings () =
  List.iter
    (fun s ->
      match Planner.strategy_of_string s with
      | Ok st -> Alcotest.(check string) "roundtrip" s (Planner.strategy_name st)
      | Error e -> Alcotest.fail (Error.to_string e))
    [
      "heuristic"; "star"; "balanced:14"; "dary:3"; "homogeneous";
      "exhaustive"; "multi-cluster"; "improved:star"; "improved:dary:3";
    ];
  Alcotest.(check bool) "unknown" true
    (Result.is_error (Planner.strategy_of_string "nonsense"));
  Alcotest.(check bool) "unknown inner" true
    (Result.is_error (Planner.strategy_of_string "improved:nonsense"))

let test_planner_run_all () =
  let platform = Generator.grid5000_lyon ~n:12 () in
  let strategies =
    [ Planner.Heuristic; Planner.Star; Planner.Balanced 2;
      Planner.Dary 3; Planner.Homogeneous_optimal; Planner.Multi_cluster;
      Planner.Improved Planner.Star ]
  in
  List.iter
    (fun s ->
      match Planner.run s params ~platform ~wapp:(dgemm 310) ~demand:Demand.unbounded with
      | Ok plan ->
          Alcotest.(check bool) "positive rho" true (plan.Planner.predicted_rho > 0.0);
          Alcotest.(check bool) "uses <= available" true
            (plan.Planner.nodes_used <= plan.Planner.nodes_available)
      | Error e -> Alcotest.fail (Planner.strategy_name s ^ ": " ^ Error.to_string e))
    strategies

let test_planner_improved_strategy () =
  (* improved:<base> must never be worse than the base *)
  let platform = Generator.grid5000_lyon ~n:20 () in
  let wapp = dgemm 310 in
  let rho s =
    match Planner.run s params ~platform ~wapp ~demand:Demand.unbounded with
    | Ok p -> p.Planner.predicted_rho
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  Alcotest.(check bool) "improved dary:2 >= dary:2" true
    (rho (Planner.Improved (Planner.Dary 2)) >= rho (Planner.Dary 2) -. 1e-9)

let test_planner_multi_cluster_on_two_sites () =
  let rng = Rng.create 6 in
  let platform = Generator.two_sites ~rng ~n_orsay:8 ~n_lyon:8 ~wan_bandwidth:500.0 () in
  let wapp = dgemm 310 in
  (match Planner.run Planner.Multi_cluster params ~platform ~wapp ~demand:Demand.unbounded with
  | Ok p -> Alcotest.(check bool) "positive rho" true (p.Planner.predicted_rho > 0.0)
  | Error e -> Alcotest.fail (Error.to_string e));
  (* the plain heuristic cannot handle heterogeneous connectivity *)
  Alcotest.(check bool) "heuristic errors on two sites" true
    (Result.is_error
       (Planner.run Planner.Heuristic params ~platform ~wapp ~demand:Demand.unbounded))

let test_planner_compare () =
  let platform = Generator.grid5000_lyon ~n:12 () in
  let results =
    Planner.compare_strategies params ~platform ~wapp:(dgemm 310) ~demand:Demand.unbounded
      [ Planner.Heuristic; Planner.Star ]
  in
  Alcotest.(check int) "two results" 2 (List.length results)

let test_planner_replan_prunes_failed () =
  let platform = Generator.grid5000_lyon ~n:12 () in
  let wapp = dgemm 310 in
  match
    Planner.replan Planner.Heuristic params ~platform ~wapp ~demand:Demand.unbounded
      ~failed:[ 5; 2; 5 ] ()
  with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok r ->
      Alcotest.(check (list int)) "failed sorted and deduplicated" [ 2; 5 ]
        r.Planner.failed;
      Alcotest.(check int) "survivors" 10 r.Planner.survivors;
      let tree = r.Planner.replanned.Planner.tree in
      Alcotest.(check bool) "valid on the original platform" true
        (Validate.is_valid ~platform tree);
      Alcotest.(check bool) "failed nodes absent from the new hierarchy" true
        (List.for_all (fun n -> not (List.mem (Node.id n) [ 2; 5 ])) (Tree.nodes tree));
      Alcotest.(check bool) "losing nodes cannot help" true
        (r.Planner.rho_after <= r.Planner.rho_before +. 1e-9);
      check_close "rho_after is the replanned prediction"
        r.Planner.replanned.Planner.predicted_rho r.Planner.rho_after;
      Alcotest.(check bool) "drop in [0, 1]" true
        (r.Planner.rho_drop >= 0.0 && r.Planner.rho_drop <= 1.0)

let test_planner_replan_reference () =
  (* against an explicit pre-failure hierarchy, the drop is measured from
     that hierarchy's rho, not from a fresh plan *)
  let platform = Generator.grid5000_lyon ~n:8 () in
  let wapp = dgemm 310 in
  let reference =
    match Baselines.star (Platform.sorted_by_power_desc platform) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  match
    Planner.replan Planner.Heuristic params ~platform ~wapp ~demand:Demand.unbounded
      ~failed:[ 3 ] ~reference ()
  with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok r ->
      check_close "rho_before is the reference rho"
        (Evaluate.rho_on params ~platform ~wapp reference)
        r.Planner.rho_before

let test_planner_replan_errors () =
  (* Degenerate remnants must come back as typed errors, never as
     exceptions — this is the contract the online controller leans on. *)
  let platform = Generator.grid5000_lyon ~n:4 () in
  let wapp = dgemm 310 in
  let replan ?(strategy = Planner.Heuristic) failed =
    Planner.replan strategy params ~platform ~wapp ~demand:Demand.unbounded
      ~failed ()
  in
  (match replan [ 99 ] with
  | Error (Error.Invalid_input _) -> ()
  | Error e -> Alcotest.fail ("off-platform id: wrong error " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "off-platform id accepted");
  (match replan [] with
  | Error (Error.Invalid_input _) -> ()
  | Error e -> Alcotest.fail ("empty failed: wrong error " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "empty failed list accepted");
  (match replan [ 0; 1; 2; 3 ] with
  | Error Error.No_survivors -> ()
  | Error e -> Alcotest.fail ("zero survivors: wrong error " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "zero survivors accepted");
  (match replan [ 0; 1; 2 ] with
  | Error (Error.Insufficient_survivors { survivors = 1; required = 2 }) -> ()
  | Error e -> Alcotest.fail ("one survivor: wrong error " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "one survivor accepted");
  (* Two survivors are enough for a hierarchy in principle, but not for a
     balanced graph with three middle agents: the strategy itself cannot
     plan the remnant. *)
  (match replan ~strategy:(Planner.Balanced 3) [ 0; 1 ] with
  | Error (Error.No_feasible_hierarchy _) -> ()
  | Error e ->
      Alcotest.fail ("infeasible remnant: wrong error " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "balanced:3 planned on two survivors")

let test_planner_replan_never_raises () =
  let platform = Generator.grid5000_lyon ~n:5 () in
  let wapp = dgemm 310 in
  (* Every subset of failed ids, including all-failed and out-of-range
     spreads, must return Ok or Error without raising. *)
  for mask = 0 to 63 do
    let failed = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3; 4; 5 ] in
    ignore
      (Planner.replan Planner.Heuristic params ~platform ~wapp
         ~demand:Demand.unbounded ~failed ())
  done

(* ---------- pooled/reference equivalence ---------- *)

(* The pooled planner must be *decision-identical* to the frozen seed
   implementation (Heuristic_reference): not approximately equal — the
   same floats through the same comparisons, hence bit-identical rho,
   structurally equal trees and field-identical probe logs. *)

let check_equivalent ?(msg = "") platform wapp demand =
  match
    ( Heuristic.plan params ~platform ~wapp ~demand,
      Heuristic_reference.plan params ~platform ~wapp ~demand )
  with
  | Error a, Error b -> Alcotest.(check string) (msg ^ "same error") b a
  | Ok _, Error e -> Alcotest.fail (msg ^ "pooled ok, reference error: " ^ e)
  | Error e, Ok _ -> Alcotest.fail (msg ^ "pooled error, reference ok: " ^ e)
  | Ok fast, Ok slow ->
      Alcotest.(check bool)
        (msg ^ "trees structurally equal")
        true
        (Tree.equal fast.Heuristic.tree slow.Heuristic_reference.tree);
      Alcotest.(check bool)
        (msg ^ "rho bit-identical")
        true
        (fast.Heuristic.predicted_rho = slow.Heuristic_reference.predicted_rho);
      Alcotest.(check bool)
        (msg ^ "demand flag identical")
        true
        (fast.Heuristic.demand_met = slow.Heuristic_reference.demand_met);
      Alcotest.(check int)
        (msg ^ "same probe count")
        (List.length slow.Heuristic_reference.probes)
        (List.length fast.Heuristic.probes);
      List.iter2
        (fun (a : Heuristic.probe) (b : Heuristic_reference.probe) ->
          Alcotest.(check bool)
            (msg ^ "probe bit-identical")
            true
            (a.Heuristic.target = b.Heuristic_reference.target
            && a.Heuristic.feasible = b.Heuristic_reference.feasible
            && a.Heuristic.achieved_rho = b.Heuristic_reference.achieved_rho
            && a.Heuristic.nodes_used = b.Heuristic_reference.nodes_used))
        fast.Heuristic.probes slow.Heuristic_reference.probes

let test_equivalence_orsay () =
  let rng = Rng.create 42 in
  let platform = Generator.grid5000_orsay ~rng ~n:200 () in
  check_equivalent ~msg:"dgemm310 " platform (dgemm 310) Demand.unbounded;
  check_equivalent ~msg:"dgemm1000 " platform (dgemm 1000) Demand.unbounded;
  check_equivalent ~msg:"demand " platform (dgemm 310) (Demand.rate 200.0)

let test_equivalence_two_node_boundary () =
  (* the smallest planable platform: [rest] is a single server, so every
     prefix-sum lookup sits on the array boundary (hi_service over one
     element, hi_predict = server_sched of index 1) *)
  let platform = Generator.grid5000_lyon ~n:2 () in
  check_equivalent ~msg:"lyon2 " platform (dgemm 310) Demand.unbounded;
  let hetero =
    Platform.create
      ~link:(Adept_platform.Link.homogeneous ~bandwidth:1000.0 ())
      [ node ~power:900.0 0; node ~power:150.0 1 ]
  in
  check_equivalent ~msg:"hetero2 " hetero (dgemm 310) Demand.unbounded;
  match Heuristic.plan params ~platform:hetero ~wapp:(dgemm 310) ~demand:Demand.unbounded with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "both nodes used" 2 (Tree.size r.Heuristic.tree);
      (* lighten_agents parks the agent on the weaker node whenever that
         still meets the target, freeing the strong node to serve *)
      Alcotest.(check bool) "one agent, one server" true
        (Tree.agent_count r.Heuristic.tree = 1
        && Tree.server_count r.Heuristic.tree = 1);
      Alcotest.(check bool) "validates" true
        (Validate.is_valid ~platform:hetero r.Heuristic.tree)

let test_equivalence_lightening_swaps () =
  (* Served-style platforms where agent lightening really swaps: at
     DGEMM 1000 the strongest node, the root, trades places with the
     weakest server that can still schedule, so the plan's root is not
     the strongest node.  The pooled planner reads lightening's sorted
     role arrays off pool ranks; the reference sorts them. *)
  List.iter
    (fun n ->
      let rng = Rng.create 3 in
      let platform =
        Generator.background_loaded ~bandwidth:1000.0 ~rng ~n ~power:730.0
          ~load_fraction:0.65 ~load_levels:4 ()
      in
      let msg = Printf.sprintf "loaded%d " n in
      check_equivalent ~msg platform (dgemm 1000) Demand.unbounded;
      match Heuristic.plan params ~platform ~wapp:(dgemm 1000) ~demand:Demand.unbounded with
      | Error e -> Alcotest.fail e
      | Ok r ->
          let strongest = List.hd (Platform.sorted_by_power_desc platform) in
          let root =
            match r.Heuristic.tree with Tree.Agent (a, _) | Tree.Server a -> a
          in
          Alcotest.(check bool) (msg ^ "root swapped off the strongest node") true
            (Node.power root < Node.power strongest))
    [ 60; 200 ]

(* ---------- incremental replans ---------- *)

let lyon_star_plan n =
  let platform = Generator.grid5000_lyon ~n () in
  let wapp = dgemm 310 in
  match Planner.run Planner.Star params ~platform ~wapp ~demand:Demand.unbounded with
  | Ok p -> (platform, wapp, p)
  | Error e -> Alcotest.fail (Error.to_string e)

let test_replan_incremental_empty_crash () =
  (* determinism anchor: no crashes in, the very same plan out *)
  let platform, wapp, p = lyon_star_plan 4 in
  match
    Planner.replan_incremental Planner.Star params ~platform ~wapp
      ~demand:Demand.unbounded ~failed:[] ~previous:p.Planner.tree ()
  with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (r, mode) ->
      Alcotest.(check string) "mode" "incremental" (Planner.replan_mode_name mode);
      Alcotest.(check bool) "tree physically shared" true
        (r.Planner.replanned.Planner.tree == p.Planner.tree);
      Alcotest.(check bool) "rho bit-identical" true
        (r.Planner.rho_after = p.Planner.predicted_rho
        && r.Planner.rho_before = r.Planner.rho_after);
      Alcotest.(check int) "zero evaluations" 0
        r.Planner.replanned.Planner.evaluations;
      Alcotest.(check (float 0.0)) "zero drop" 0.0 r.Planner.rho_drop

let test_replan_incremental_modes () =
  let platform, wapp, p = lyon_star_plan 6 in
  let previous = p.Planner.tree in
  let root = Node.id (Tree.root_node previous) in
  let incr failed =
    Planner.replan_incremental Planner.Star params ~platform ~wapp
      ~demand:Demand.unbounded ~failed ~previous ()
  in
  (match incr [ 1 ] with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (r, mode) ->
      Alcotest.(check string) "server crash patches in place" "incremental"
        (Planner.replan_mode_name mode);
      Alcotest.(check (option string)) "no fallback reason" None
        (Planner.replan_fallback_reason mode);
      Alcotest.(check bool) "dead node written out" true
        (not (Tree.mem r.Planner.replanned.Planner.tree 1));
      Alcotest.(check bool) "validates" true
        (Validate.is_valid ~platform r.Planner.replanned.Planner.tree);
      Alcotest.(check int) "one evaluation" 1
        r.Planner.replanned.Planner.evaluations);
  (match incr [ root ] with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (_, mode) ->
      Alcotest.(check string) "root death falls back" "full"
        (Planner.replan_mode_name mode);
      Alcotest.(check (option string)) "with its reason" (Some "root-died")
        (Planner.replan_fallback_reason mode));
  (* error paths mirror [replan]'s typed errors *)
  Alcotest.(check bool) "off-platform id rejected" true
    (match incr [ 99 ] with Error (Error.Invalid_input _) -> true | _ -> false);
  Alcotest.(check bool) "bad slack rejected" true
    (match
       Planner.replan_incremental Planner.Star params ~platform ~wapp
         ~demand:Demand.unbounded ~failed:[ 1 ] ~previous ~slack:1.5 ()
     with
    | Error (Error.Invalid_input _) -> true
    | _ -> false);
  Alcotest.(check bool) "too few survivors" true
    (match incr [ 0; 1; 2; 3; 4 ] with
    | Error (Error.Insufficient_survivors _) -> true
    | _ -> false)

(* Satellite regression (incremental twin of the sim-level re-admission
   test): a node written out by an earlier patch and recovered since must
   rejoin through the patcher itself, without waiting for a full-replan
   fallback to re-admit it implicitly. *)
let test_replan_incremental_readmission () =
  let platform, wapp, p = lyon_star_plan 6 in
  let incr ?recovered failed previous =
    Planner.replan_incremental Planner.Star params ~platform ~wapp
      ~demand:Demand.unbounded ~failed ?recovered ~previous ()
  in
  let root = Node.id (Tree.root_node p.Planner.tree) in
  let s1, s2, rest =
    match List.filter (fun i -> i <> root) [ 0; 1; 2; 3; 4; 5 ] with
    | a :: b :: rest -> (a, b, rest)
    | _ -> Alcotest.fail "star over 6 nodes has 5 servers"
  in
  (* first incident writes one server off, as an online controller would *)
  let without_s1 =
    match incr [ s1 ] p.Planner.tree with
    | Ok (r, _) -> r.Planner.replanned.Planner.tree
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  Alcotest.(check bool) "precondition: first server written out" true
    (not (Tree.mem without_s1 s1));
  (* second incident: another server dies while the first is back up —
     the patcher must write out the corpse AND graft the recovery *)
  (match incr ~recovered:[ s1 ] [ s2 ] without_s1 with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (r, mode) ->
      Alcotest.(check string) "patched in place" "incremental"
        (Planner.replan_mode_name mode);
      let tree = r.Planner.replanned.Planner.tree in
      Alcotest.(check bool) "corpse written out" true (not (Tree.mem tree s2));
      Alcotest.(check bool) "recovered node re-admitted" true (Tree.mem tree s1);
      Alcotest.(check bool) "validates" true (Validate.is_valid ~platform tree);
      Alcotest.(check int) "patch plus graft evaluated" 2
        r.Planner.replanned.Planner.evaluations);
  (* nothing died but a node recovered: pure improvement step, no slack
     gate, still [Incremental] *)
  (match incr ~recovered:[ s1 ] [] without_s1 with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (r, mode) ->
      Alcotest.(check string) "graft-only is incremental" "incremental"
        (Planner.replan_mode_name mode);
      Alcotest.(check bool) "re-admitted without a failure" true
        (Tree.mem r.Planner.replanned.Planner.tree s1);
      Alcotest.(check bool) "improvement step reports no drop" true
        (r.Planner.rho_drop = 0.0
        && r.Planner.rho_after >= r.Planner.rho_before));
  (* a "recovered" id still serving in [previous] never left: the
     verbatim determinism anchor holds *)
  (match incr ~recovered:[ root ] [] p.Planner.tree with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (r, _) ->
      Alcotest.(check bool) "tree physically shared" true
        (r.Planner.replanned.Planner.tree == p.Planner.tree);
      Alcotest.(check int) "zero evaluations" 0
        r.Planner.replanned.Planner.evaluations);
  (* a patch reduced to the bare root is rescued by the recovery instead
     of falling back to a full replan *)
  (let two_node =
     match incr (s2 :: rest) p.Planner.tree with
     | Ok (r, _) -> r.Planner.replanned.Planner.tree
     | Error e -> Alcotest.fail (Error.to_string e)
   in
   Alcotest.(check int) "precondition: root plus one server" 2
     (Tree.size two_node);
   (* still-dead off-tree nodes ride along in [failed], exactly as the
      online controller submits them, keeping the survivor bound honest *)
   match incr ~recovered:[ s2 ] (s1 :: rest) two_node with
   | Error e -> Alcotest.fail (Error.to_string e)
   | Ok (r, mode) ->
       Alcotest.(check string) "bare-root patch rescued incrementally"
         "incremental"
         (Planner.replan_mode_name mode);
       Alcotest.(check bool) "rescue node serves" true
         (Tree.mem r.Planner.replanned.Planner.tree s2));
  (* contradictory ledger is a typed error *)
  Alcotest.(check bool) "failed+recovered overlap rejected" true
    (match incr ~recovered:[ s1 ] [ s1 ] without_s1 with
    | Error (Error.Invalid_input _) -> true
    | _ -> false);
  Alcotest.(check bool) "off-platform recovery rejected" true
    (match incr ~recovered:[ 99 ] [ s2 ] without_s1 with
    | Error (Error.Invalid_input _) -> true
    | _ -> false)

(* ---------- properties ---------- *)

let prop_heuristic_always_valid =
  QCheck.Test.make ~count:60 ~name:"heuristic plans validate on random platforms"
    QCheck.(pair (int_range 0 10_000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let platform =
        Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n ~power_min:50.0
          ~power_max:2000.0 ()
      in
      match Heuristic.plan params ~platform ~wapp:(dgemm 310) ~demand:Demand.unbounded with
      | Error _ -> false
      | Ok r ->
          Validate.is_valid ~platform r.Heuristic.tree
          && Tree.size r.Heuristic.tree <= n)

let prop_heuristic_dominates_star =
  QCheck.Test.make ~count:40 ~name:"heuristic >= power-aware star on random platforms"
    QCheck.(triple (int_range 0 10_000) (int_range 3 35) (int_range 50 600))
    (fun (seed, n, size) ->
      let rng = Rng.create seed in
      let platform =
        Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n ~power_min:100.0
          ~power_max:1500.0 ()
      in
      let wapp = dgemm size in
      match
        ( Heuristic.plan params ~platform ~wapp ~demand:Demand.unbounded,
          Baselines.star (Platform.sorted_by_power_desc platform) )
      with
      | Ok heur, Ok star ->
          heur.Heuristic.predicted_rho
          >= Evaluate.rho_on params ~platform ~wapp star -. 1e-6
      | _ -> false)

let prop_improver_preserves_validity =
  QCheck.Test.make ~count:40 ~name:"improver output always validates and never regresses"
    QCheck.(pair (int_range 0 10_000) (int_range 4 20))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let platform =
        Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n ~power_min:100.0
          ~power_max:1500.0 ()
      in
      match Baselines.random ~rng (Platform.nodes platform) with
      | Error _ -> QCheck.assume_fail ()
      | Ok start -> (
          let wapp = dgemm 310 in
          match Improver.improve params ~platform ~wapp start with
          | Error _ -> false
          | Ok r ->
              Validate.is_valid ~platform r.Improver.tree
              && r.Improver.predicted_rho
                 >= Evaluate.rho_on params ~platform ~wapp start -. 1e-9))

let prop_normalize_always_validates =
  QCheck.Test.make ~count:100 ~name:"Tree.normalize fixes any random tree shape"
    QCheck.(pair (int_range 0 10_000) (int_range 2 20))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let platform =
        Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n ~power_min:100.0
          ~power_max:1500.0 ()
      in
      match Baselines.random ~rng (Platform.nodes platform) with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
          let t' = Adept_hierarchy.Tree.normalize t in
          Validate.is_valid t'
          && Adept_hierarchy.Tree.size t' = Adept_hierarchy.Tree.size t)

let prop_heuristic_bounded_by_oracle =
  (* the exhaustive planner is the ground truth on small platforms: the
     heuristic may tie it but must never claim a higher throughput, and
     both must agree with Demand.is_met about whether a demand is
     satisfied *)
  QCheck.Test.make ~count:50
    ~name:"oracle: heuristic never predicts above the exhaustive optimum"
    QCheck.(pair (int_range 0 10_000) (int_range 2 Exhaustive.default_max_nodes))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let platform =
        Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n ~power_min:100.0
          ~power_max:1500.0 ()
      in
      let wapp = dgemm 310 in
      match Exhaustive.optimal params ~platform ~wapp () with
      | Error _ -> false
      | Ok (opt_tree, opt_rho) -> (
          match Heuristic.plan params ~platform ~wapp ~demand:Demand.unbounded with
          | Error _ -> false
          | Ok heur ->
              let bounded_by_oracle =
                heur.Heuristic.predicted_rho <= opt_rho *. (1.0 +. 1e-9) +. 1e-9
              in
              (* a demand strictly below the optimum: the heuristic's
                 demand_met flag must agree with Demand.is_met on its own
                 prediction, and claiming the demand met implies the
                 oracle meets it too *)
              let feasible = Demand.rate (0.5 *. opt_rho) in
              let demand_consistent =
                match Heuristic.plan params ~platform ~wapp ~demand:feasible with
                | Error _ -> false
                | Ok h ->
                    Bool.equal h.Heuristic.demand_met
                      (Demand.is_met feasible h.Heuristic.predicted_rho)
                    && ((not h.Heuristic.demand_met) || Demand.is_met feasible opt_rho)
              in
              Validate.is_valid ~platform opt_tree
              && Validate.is_valid ~platform heur.Heuristic.tree
              && opt_rho > 0.0 && bounded_by_oracle && demand_consistent))

let prop_dary_valid_and_spanning =
  QCheck.Test.make ~count:150 ~name:"dary trees always validate and span"
    QCheck.(pair (int_range 2 60) (int_range 1 12))
    (fun (n, d) ->
      match Baselines.dary ~degree:d (nodes n) with
      | Error _ -> false
      | Ok t -> Validate.is_valid t && Tree.size t = n)

let prop_pooled_matches_reference =
  (* the equivalence harness gating the pooled planner: across every
     generator family (smooth heterogeneous, clustered power classes,
     fully homogeneous) and both demand regimes, [Heuristic] must be
     bit-identical to the frozen [Heuristic_reference] oracle — same
     trees, same rho floats, same probe log *)
  QCheck.Test.make ~count:30
    ~name:"pooled heuristic bit-identical to the reference oracle"
    QCheck.(triple (int_range 0 10_000) (int_range 2 300) (int_range 0 2))
    (fun (seed, n, kind) ->
      let rng = Rng.create seed in
      let platform =
        match kind with
        | 0 ->
            Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n
              ~power_min:100.0 ~power_max:1000.0 ()
        | 1 -> Generator.grid5000_orsay ~rng ~n ()
        | _ -> Generator.homogeneous ~bandwidth:1000.0 ~n ~power:730.0 ()
      in
      let wapp = dgemm (100 + (seed mod 900)) in
      let demand =
        if seed mod 3 = 0 then Demand.rate (float_of_int ((seed mod 400) + 50))
        else Demand.unbounded
      in
      match
        ( Heuristic.plan params ~platform ~wapp ~demand,
          Heuristic_reference.plan params ~platform ~wapp ~demand )
      with
      | Ok f, Ok s ->
          Tree.equal f.Heuristic.tree s.Heuristic_reference.tree
          && f.Heuristic.predicted_rho = s.Heuristic_reference.predicted_rho
          && f.Heuristic.demand_met = s.Heuristic_reference.demand_met
          && List.length f.Heuristic.probes
             = List.length s.Heuristic_reference.probes
          && List.for_all2
               (fun (a : Heuristic.probe) (b : Heuristic_reference.probe) ->
                 a.Heuristic.target = b.Heuristic_reference.target
                 && a.Heuristic.feasible = b.Heuristic_reference.feasible
                 && a.Heuristic.achieved_rho = b.Heuristic_reference.achieved_rho
                 && a.Heuristic.nodes_used = b.Heuristic_reference.nodes_used)
               f.Heuristic.probes s.Heuristic_reference.probes
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_pool_in_power_order =
  (* Pool order is [Node.compare_by_power_desc] order — strictly, since
     ties break on the id — because the scheduling-power sort key is
     FP-monotone in power.  Agent lightening relies on it to read its
     power-sorted role arrays off pool ranks.  Families: every generator,
     plus catalogs with many duplicate powers (id order among equals)
     and with powers one ulp apart (where the sort keys may tie). *)
  QCheck.Test.make ~count:200 ~name:"node pool is in strict power order"
    QCheck.(triple (int_range 0 10_000) (int_range 1 300) (int_range 0 5))
    (fun (seed, n, kind) ->
      let rng = Rng.create seed in
      let catalog power_of =
        let lines =
          List.init n (fun i ->
              Printf.sprintf "node name=n%d power=%h cluster=c" i (power_of i))
        in
        match
          Adept_platform.Catalog.of_string
            (String.concat "\n" ("link homogeneous bandwidth=1000 latency=0" :: lines))
        with
        | Ok p -> p
        | Error e -> failwith e
      in
      let platform =
        match kind with
        | 0 ->
            Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n ~power_min:100.0
              ~power_max:1000.0 ()
        | 1 -> Generator.grid5000_orsay ~rng ~n ()
        | 2 -> Generator.homogeneous ~bandwidth:1000.0 ~n ~power:730.0 ()
        | 3 ->
            Generator.background_loaded ~bandwidth:1000.0 ~rng ~n ~power:730.0
              ~load_fraction:0.65 ~load_levels:(1 + (seed mod 6)) ()
        | 4 -> catalog (fun _ -> 100.0 *. float_of_int (1 + Rng.int rng 3))
        | _ ->
            catalog (fun _ ->
                let rec ulps p k = if k = 0 then p else ulps (Float.succ p) (k - 1) in
                ulps 730.0 (Rng.int rng 4))
      in
      let bandwidth = Rng.float_in rng 1.0 10_000.0 in
      let pool =
        Node_pool.create params ~bandwidth ~wapp:(dgemm (100 + (seed mod 900)))
          (Platform.nodes platform)
      in
      let sorted = Node_pool.nodes pool in
      let ordered = ref true in
      for i = 0 to Array.length sorted - 2 do
        if Node.compare_by_power_desc sorted.(i) sorted.(i + 1) >= 0 then
          ordered := false
      done;
      !ordered)

let prop_replan_incremental_within_slack =
  (* an accepted patch is within the configured slack of the
     survivor-platform upper bound, hence of anything a from-scratch
     replan can achieve; a rejected patch IS the from-scratch replan —
     either way the incremental path never trails the full one by more
     than slack *)
  QCheck.Test.make ~count:25
    ~name:"incremental replan within slack of the full replan"
    QCheck.(triple (int_range 0 10_000) (int_range 4 120) (int_range 1 3))
    (fun (seed, n, crashes) ->
      let rng = Rng.create seed in
      let platform =
        Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n
          ~power_min:100.0 ~power_max:1000.0 ()
      in
      let wapp = dgemm 310 in
      let slack = 0.15 in
      match
        Planner.run Planner.Heuristic params ~platform ~wapp ~demand:Demand.unbounded
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
          let previous = p.Planner.tree in
          let root = Node.id (Tree.root_node previous) in
          let candidates =
            List.filter (fun i -> i <> root) (List.map Node.id (Tree.nodes previous))
          in
          if candidates = [] then QCheck.assume_fail ()
          else
            let failed =
              List.sort_uniq Int.compare
                (List.init (min crashes (List.length candidates)) (fun _ ->
                     List.nth candidates (Rng.int rng (List.length candidates))))
            in
            let incr =
              Planner.replan_incremental Planner.Heuristic params ~platform ~wapp
                ~demand:Demand.unbounded ~failed ~previous ~slack ()
            in
            let full =
              Planner.replan Planner.Heuristic params ~platform ~wapp
                ~demand:Demand.unbounded ~failed ~reference:previous ()
            in
            (match (incr, full) with
            | Ok (ri, _), Ok rf ->
                ri.Planner.rho_after
                >= (1.0 -. slack) *. rf.Planner.rho_after *. (1.0 -. 1e-9)
                && Validate.is_valid ~platform ri.Planner.replanned.Planner.tree
                && List.for_all
                     (fun id -> not (Tree.mem ri.Planner.replanned.Planner.tree id))
                     failed
            | Error _, Error _ -> true
            | Ok (_, _), Error _ ->
                (* the patch can survive a remnant the full planner gives
                   up on — strictly better availability *)
                true
            | Error _, Ok _ -> false))

let () =
  Alcotest.run "core"
    [
      ( "sched_power",
        [
          Alcotest.test_case "matches throughput" `Quick test_sched_power_matches_throughput;
          Alcotest.test_case "sort by power" `Quick test_sort_nodes_power_desc;
          Alcotest.test_case "sort edge cases" `Quick test_sort_nodes_empty_and_single;
          Alcotest.test_case "supported children" `Quick test_supported_children;
        ] );
      ("service_power", [ Alcotest.test_case "eq 15" `Quick test_service_power ]);
      ( "evaluate",
        [
          Alcotest.test_case "star spec" `Quick test_evaluate_star;
          Alcotest.test_case "rejects empty" `Quick test_evaluate_no_servers;
          Alcotest.test_case "report" `Quick test_evaluate_report;
        ] );
      ( "multi_cluster",
        [
          Alcotest.test_case "hetero reduces to homogeneous" `Quick
            test_rho_hetero_reduces_to_rho;
          Alcotest.test_case "slow links penalized" `Quick
            test_rho_hetero_penalizes_slow_links;
          Alcotest.test_case "sub platform" `Quick test_sub_platform;
          Alcotest.test_case "WAN crossover" `Quick test_multi_cluster_crossover;
          Alcotest.test_case "single-site degenerate" `Quick
            test_multi_cluster_single_site_platform;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "star" `Quick test_star_baseline;
          Alcotest.test_case "star too small" `Quick test_star_too_small;
          Alcotest.test_case "balanced" `Quick test_balanced_baseline;
          Alcotest.test_case "balanced too small" `Quick test_balanced_too_small;
          Alcotest.test_case "dary star case" `Quick test_dary_star_case;
          Alcotest.test_case "dary exact" `Quick test_dary_exact;
          Alcotest.test_case "dary frontier fixup" `Quick test_dary_frontier_fixup;
          Alcotest.test_case "dary validation" `Quick test_dary_validation;
          Alcotest.test_case "random valid" `Quick test_random_baseline_valid;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "tiny job degenerates" `Quick test_heuristic_degenerate_tiny_job;
          Alcotest.test_case "huge job stars" `Quick test_heuristic_star_for_huge_job;
          Alcotest.test_case "table 4 quality" `Quick
            test_heuristic_matches_homogeneous_optimal;
          Alcotest.test_case "valid and beats baselines" `Quick
            test_heuristic_valid_and_beats_baselines;
          Alcotest.test_case "demand met minimally" `Quick test_heuristic_demand_met_minimal;
          Alcotest.test_case "demand unreachable" `Quick test_heuristic_demand_unreachable;
          Alcotest.test_case "probes recorded" `Quick test_heuristic_probes_recorded;
          Alcotest.test_case "errors" `Quick test_heuristic_errors;
          Alcotest.test_case "heterogeneous links rejected" `Quick
            test_heuristic_heterogeneous_links_rejected;
          Alcotest.test_case "scales to thousands" `Quick
            test_heuristic_scales_to_thousands;
          Alcotest.test_case "build_for_target" `Quick test_build_for_target;
        ] );
      ( "homogeneous",
        [
          Alcotest.test_case "best degree" `Quick test_homogeneous_picks_best_degree;
          Alcotest.test_case "validates" `Quick test_homogeneous_validates;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "counts" `Quick test_exhaustive_counts;
          Alcotest.test_case "all valid" `Quick test_exhaustive_trees_valid;
          Alcotest.test_case "oracle vs heuristic" `Slow
            test_exhaustive_optimal_beats_heuristic;
          Alcotest.test_case "size guard" `Quick test_exhaustive_guard;
        ] );
      ( "latency",
        [
          Alcotest.test_case "tracks simulation" `Slow test_latency_tracks_simulation;
          Alcotest.test_case "monotone in rate" `Quick test_latency_monotone_in_rate;
          Alcotest.test_case "instability at rho" `Quick test_latency_instability_at_rho;
          Alcotest.test_case "validation" `Quick test_latency_validation;
        ] );
      ( "improver",
        [
          Alcotest.test_case "climbs from degenerate" `Quick
            test_improver_climbs_from_degenerate;
          Alcotest.test_case "adds servers when service-limited" `Quick
            test_improver_service_bottleneck_adds_servers;
          Alcotest.test_case "splits agent bottleneck" `Quick
            test_improver_splits_agent_bottleneck;
          Alcotest.test_case "splits non-root agent" `Quick
            test_improver_splits_non_root_agent;
          Alcotest.test_case "bounded by heuristic" `Quick test_improver_at_most_heuristic;
          Alcotest.test_case "max iterations" `Quick test_improver_max_iterations;
          Alcotest.test_case "rejects invalid input" `Quick
            test_improver_rejects_invalid_input;
        ] );
      ( "planner",
        [
          Alcotest.test_case "strategy strings" `Quick test_planner_strategy_strings;
          Alcotest.test_case "run all" `Quick test_planner_run_all;
          Alcotest.test_case "improved strategy" `Quick test_planner_improved_strategy;
          Alcotest.test_case "multi-cluster on two sites" `Quick
            test_planner_multi_cluster_on_two_sites;
          Alcotest.test_case "compare" `Quick test_planner_compare;
          Alcotest.test_case "replan prunes failed nodes" `Quick
            test_planner_replan_prunes_failed;
          Alcotest.test_case "replan against reference" `Quick
            test_planner_replan_reference;
          Alcotest.test_case "replan errors" `Quick test_planner_replan_errors;
          Alcotest.test_case "replan never raises" `Quick
            test_planner_replan_never_raises;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "orsay 200" `Quick test_equivalence_orsay;
          Alcotest.test_case "two-node boundary" `Quick
            test_equivalence_two_node_boundary;
          Alcotest.test_case "lightening swaps" `Quick
            test_equivalence_lightening_swaps;
        ] );
      ( "replan_incremental",
        [
          Alcotest.test_case "empty crash set is identity" `Quick
            test_replan_incremental_empty_crash;
          Alcotest.test_case "modes and errors" `Quick
            test_replan_incremental_modes;
          Alcotest.test_case "recovered nodes re-admitted" `Quick
            test_replan_incremental_readmission;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heuristic_always_valid;
            prop_heuristic_dominates_star;
            prop_improver_preserves_validity;
            prop_normalize_always_validates;
            prop_heuristic_bounded_by_oracle;
            prop_dary_valid_and_spanning;
            prop_pooled_matches_reference;
            prop_pool_in_power_order;
            prop_replan_incremental_within_slack;
          ] );
    ]
