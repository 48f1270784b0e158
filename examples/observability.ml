(* Observability: run an instrumented simulation and set the measured
   per-element costs against the model's predictions (Eqs. 1-5 and the
   Eq. 16 throughput), then export the metrics for external tooling.

     dune exec examples/observability.exe *)

let () =
  (* 1. A small homogeneous cluster and the paper's DGEMM workload. *)
  let platform = Adept_platform.Generator.homogeneous ~bandwidth:1000.0 ~n:12 ~power:730.0 () in
  let dgemm = Adept_workload.Dgemm.make 310 in
  let wapp = Adept_workload.Dgemm.mflops dgemm in
  let params = Adept_model.Params.diet_lyon in

  (* 2. Plan a deployment. *)
  let plan =
    match
      Adept.Planner.run Adept.Planner.Heuristic params ~platform ~wapp
        ~demand:Adept_model.Demand.unbounded
    with
    | Ok plan -> plan
    | Error e -> failwith (Adept.Error.to_string e)
  in
  let tree = plan.Adept.Planner.tree in
  Format.printf "plan: %a@.@." Adept.Planner.pp_plan plan;

  (* 3. Simulate with a metrics registry attached.  The instrumentation
     only observes work the simulator performs anyway, so the run is
     bit-identical with or without it. *)
  let registry = Adept_obs.Registry.create () in
  let job = Adept_workload.Job.of_dgemm dgemm in
  let scenario =
    Adept_sim.Scenario.make ~seed:7 ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job)
      tree
  in
  let result =
    Adept_sim.Scenario.run_fixed ~registry scenario ~clients:40 ~warmup:2.0
      ~duration:4.0
  in
  Printf.printf "simulated: %.2f req/s (model %.2f)\n\n"
    result.Adept_sim.Scenario.throughput plan.Adept.Planner.predicted_rho;

  (* 4. The model-vs-measured report: per-element compute components and
     throughput, with relative deviations.  The same table backs the
     `adept observe` subcommand and the CI fidelity gate. *)
  let report = Adept_obs.Report.build ~registry ~params ~platform ~wapp ~tree in
  print_string (Adept_obs.Report.render report);
  print_newline ();

  (* 5. Export for external tooling: Prometheus text, JSON lines, CSV. *)
  let families = Adept_obs.Registry.snapshot registry in
  Out_channel.with_open_text "observability_metrics.prom" (fun oc ->
      Out_channel.output_string oc (Adept_obs.Export.prometheus families));
  print_endline "wrote observability_metrics.prom";
  Printf.printf "metrics: %d series across %d families; jsonl is %d bytes\n\n"
    (Adept_obs.Registry.num_series registry)
    (List.length families)
    (String.length (Adept_obs.Export.jsonl families));

  (* 6. Per-request causal traces: re-run with a request-trace store
     attached.  Sampled requests record their Figure-1 span chain; the
     parent walk back from the last span is the critical path, and
     cross-trace attribution names the measured bottleneck — checked
     against which side of Eq. 16 the model says binds.  The same
     pipeline backs the `adept trace` subcommand and its CI gate. *)
  let store = Adept_obs.Request_trace.create ~max_traces:8 () in
  let registry2 = Adept_obs.Registry.create () in
  let _ : Adept_sim.Scenario.run_result =
    Adept_sim.Scenario.run_fixed ~registry:registry2 ~rtrace:store scenario
      ~clients:40 ~warmup:2.0 ~duration:4.0
  in
  let utilization =
    match
      Adept_obs.Registry.find registry2 Adept_obs.Semconv.node_utilization_ratio
    with
    | None -> []
    | Some fam ->
        List.filter_map
          (fun (labels, value) ->
            match
              ( Option.bind
                  (Adept_obs.Label.find labels Adept_obs.Semconv.l_node)
                  int_of_string_opt,
                value )
            with
            | Some id, Adept_obs.Registry.Gauge u -> Some (id, u)
            | _ -> None)
          fam.Adept_obs.Registry.series
  in
  let predicted =
    Adept.Evaluate.bottleneck_element params
      ~bandwidth:(Option.get
            (Adept_platform.Link.uniform_bandwidth
               (Adept_platform.Platform.link platform)))
      ~wapp tree
  in
  let attribution =
    Adept_obs.Attribution.build ~store ~tree ~utilization ~predicted ()
  in
  print_string (Adept_obs.Attribution.render attribution);
  (match Adept_obs.Request_trace.exemplars store with
  | [] -> ()
  | slowest :: _ ->
      print_newline ();
      print_string (Adept_obs.Critical_path.render slowest))
