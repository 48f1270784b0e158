(* Quickstart: plan a deployment for a small heterogeneous cluster and
   print everything a user needs to launch it.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. Describe the platform: 24 nodes, heterogeneous power, 1 Gbit/s LAN. *)
  let rng = Adept_util.Rng.create 7 in
  let platform =
    Adept_platform.Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n:24
      ~power_min:300.0 ~power_max:900.0 ()
  in
  Format.printf "platform: %a@.@." Adept_platform.Platform.pp_summary platform;

  (* 2. Describe the workload: DGEMM 310x310 requests, as in the paper. *)
  let dgemm = Adept_workload.Dgemm.make 310 in
  let wapp = Adept_workload.Dgemm.mflops dgemm in
  Format.printf "workload: %a = %.1f MFlop per request@.@." Adept_workload.Dgemm.pp dgemm
    wapp;

  (* 3. Plan with the paper's heuristic (Table 3 middleware constants). *)
  let params = Adept_model.Params.diet_lyon in
  let plan =
    match
      Adept.Planner.run Adept.Planner.Heuristic params ~platform ~wapp
        ~demand:Adept_model.Demand.unbounded
    with
    | Ok plan -> plan
    | Error e -> failwith (Adept.Error.to_string e)
  in
  Format.printf "plan: %a@.@." Adept.Planner.pp_plan plan;
  Format.printf "%s@.@."
    (Adept.Evaluate.report params
       ~bandwidth:(Option.get
            (Adept_platform.Link.uniform_bandwidth
               (Adept_platform.Platform.link platform)))
       ~wapp plan.Adept.Planner.tree);

  (* 4. Print the hierarchy and its GoDIET XML. *)
  Format.printf "hierarchy:@.%a@." Adept_hierarchy.Tree.pp plan.Adept.Planner.tree;
  print_string (Adept_hierarchy.Xml.to_string plan.Adept.Planner.tree)
