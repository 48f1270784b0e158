(* Correcting a deployment after launch.

   The paper's measurement protocol notes that "one has to assume a
   particular job mix, define a deployment, and eventually correct the
   deployment after launch if it was not well-chosen."  This walkthrough
   does exactly that: launch an intuitive star, observe it underperform,
   identify the bottleneck, and redeploy.

     dune exec examples/redeployment.exe *)

let params = Adept_model.Params.diet_lyon

let measure platform tree ~label =
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 310) in
  let scenario =
    Adept_sim.Scenario.make ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  let r = Adept_sim.Scenario.run_fixed scenario ~clients:200 ~warmup:2.0 ~duration:4.0 in
  Printf.printf "%-12s %6.1f req/s measured (model %6.1f), p95 response %.3fs\n" label
    r.Adept_sim.Scenario.throughput
    (Adept.Evaluate.rho_on params ~platform
       ~wapp:(Adept_workload.Job.wapp job)
       tree)
    (Option.value ~default:Float.nan r.Adept_sim.Scenario.p95_response);
  r.Adept_sim.Scenario.throughput

let () =
  let platform = Adept_platform.Generator.grid5000_lyon ~n:45 () in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  let sorted = Adept_platform.Platform.sorted_by_power_desc platform in

  (* Day 1: the intuitive flat star over the first 40 machines (the other
     five were kept in reserve). *)
  let star =
    Result.get_ok (Adept.Baselines.star (List.filteri (fun i _ -> i < 40) sorted))
  in
  let star_rate = measure platform star ~label:"star" in

  (* The model's diagnosis. *)
  (match
     Adept.Evaluate.bottleneck params
       ~bandwidth:(Option.get
            (Adept_platform.Link.uniform_bandwidth
               (Adept_platform.Platform.link platform)))
       ~wapp star
   with
  | `Agent_sched -> print_endline "diagnosis: the root agent is the bottleneck"
  | `Server_sched -> print_endline "diagnosis: server prediction is the bottleneck"
  | `Service -> print_endline "diagnosis: service capacity is the bottleneck");

  (* Option A: patch the running deployment iteratively (refs [6]/[7]). *)
  let patched =
    match Adept.Improver.improve params ~platform ~wapp star with
    | Ok r ->
        Printf.printf "improver applied %d changes\n" (List.length r.Adept.Improver.steps);
        r.Adept.Improver.tree
    | Error e -> failwith e
  in
  let patched_rate = measure platform patched ~label:"patched" in

  (* Option B: replan from scratch (Algorithm 1) and redeploy via GoDIET. *)
  let replanned =
    Result.get_ok
      (Adept.Heuristic.plan_tree params ~platform ~wapp
         ~demand:Adept_model.Demand.unbounded)
  in
  let plan = Result.get_ok (Adept_godiet.Plan.of_tree replanned) in
  let engine = Adept_sim.Engine.create () in
  let launched =
    Adept_godiet.Launcher.launch ~element_delay:0.5 ~engine ~params ~platform plan
  in
  Printf.printf "redeployment: %d elements relaunched, platform back up after %.0fs\n"
    launched.Adept_godiet.Launcher.launched_elements
    launched.Adept_godiet.Launcher.ready_at;
  let replanned_rate = measure platform replanned ~label:"replanned" in

  Printf.printf
    "\nsummary: star %.0f -> patched %.0f (x%.2f) -> replanned %.0f (x%.2f)\n" star_rate
    patched_rate (patched_rate /. star_rate) replanned_rate
    (replanned_rate /. star_rate)
