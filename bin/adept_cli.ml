(* ADePT — Automatic Deployment Planning Tool (the paper's Section 6
   "near future" objective, built on this library).

   Subcommands:
     platform   generate a platform catalog
     plan       plan a deployment and print/export it
     eval       evaluate a hierarchy XML against the model
     simulate   measure a deployment in the discrete-event simulator
     observe    instrumented run + model-vs-measured report / exports
     trace      per-request causal traces, critical-path attribution
     monitor    continuous monitoring: scrapes, alert rules, model drift
     experiment run paper reproductions by id
     bench-node measure this machine's MFlop/s (Linpack mini-benchmark)

   The planning subcommands build the same [Protocol] request records
   [adept query] sends and execute them through [Render], the code the
   server answers with, so batch and served output cannot drift. *)

open Cmdliner
module Proto = Adept_serve.Protocol
module Render = Adept_serve.Render

let exit_err msg =
  prerr_endline ("adept: " ^ msg);
  exit 1

let or_exit = function Ok v -> v | Error e -> exit_err e

(* Typed errors from the planning/replanning pipeline become exit
   diagnostics here, at the edge. *)
let or_exit_typed r = or_exit (Result.map_error Adept.Error.to_string r)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error e

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

(* ---------- shared flag groups ---------- *)

let seed_arg =
  let doc = "Random seed for platform generation and simulation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --platform FILE or the synthetic-generator flags, as a request's
   platform spec.  A catalog file is read here and shipped inline, as
   the server may run elsewhere.  --seed comes back as well: it also
   seeds the simulations. *)
let platform_term =
  let file =
    let doc = "Platform catalog file (see Catalog format in the README)." in
    Arg.(value & opt (some string) None & info [ "platform" ] ~docv:"FILE" ~doc)
  in
  let nodes =
    let doc = "Number of synthetic nodes when no catalog is given." in
    Arg.(value & opt int 50 & info [ "nodes"; "n" ] ~docv:"N" ~doc)
  in
  let power =
    let doc = "Node power in MFlop/s for synthetic platforms." in
    Arg.(value & opt float 730.0 & info [ "power" ] ~docv:"MFLOPS" ~doc)
  in
  let bandwidth =
    let doc = "Link bandwidth in Mbit/s for synthetic platforms." in
    Arg.(value & opt float 1000.0 & info [ "bandwidth"; "B" ] ~docv:"MBITS" ~doc)
  in
  let heterogeneous =
    let doc =
      "Heterogenise the synthetic platform with background load (the paper's \
       Section 5.3 method)."
    in
    Arg.(value & flag & info [ "heterogeneous" ] ~doc)
  in
  let make file nodes power bandwidth heterogeneous seed =
    let spec =
      match file with
      | None -> Proto.Synthetic { nodes; power; bandwidth; heterogeneous; seed }
      | Some path -> (
          match read_file path with
          | Ok text -> Proto.Catalog text
          | Error e -> exit_err ("cannot load platform: " ^ e))
    in
    (spec, seed)
  in
  Term.(const make $ file $ nodes $ power $ bandwidth $ heterogeneous $ seed_arg)

let dgemm_arg =
  let doc = "DGEMM matrix order defining the workload." in
  Arg.(value & opt int 310 & info [ "dgemm" ] ~docv:"N" ~doc)

let demand_arg =
  let doc = "Client demand in requests/s (default: unbounded)." in
  Arg.(value & opt (some float) None & info [ "demand" ] ~docv:"REQS" ~doc)

(* A plan request: the platform plus --dgemm/--demand/--strategy, with
   the --seed of the platform group. *)
let request_term =
  let strategy =
    let doc =
      "Planning strategy: heuristic, star, balanced:<k>, dary:<d>, \
       homogeneous, exhaustive, multi-cluster, or improved:<s> (plan with \
       strategy <s>, then remove bottlenecks iteratively)."
    in
    Arg.(value & opt string "heuristic" & info [ "strategy" ] ~docv:"NAME" ~doc)
  in
  let make (spec, seed) dgemm demand strategy =
    ({ Proto.spec; dgemm; demand; strategy; use_cache = true }, seed)
  in
  Term.(const make $ platform_term $ dgemm_arg $ demand_arg $ strategy)

let replan_term =
  let failed =
    Arg.(value & pos_all int [] & info [] ~docv:"NODE_ID"
           ~doc:"Ids of the failed nodes to plan around.")
  in
  let make ((req : Proto.plan_params), _) failed =
    {
      Proto.r_spec = req.spec;
      r_dgemm = req.dgemm;
      r_demand = req.demand;
      r_strategy = req.strategy;
      r_failed = failed;
    }
  in
  Term.(const make $ request_term $ failed)

let clients_arg ~default ~doc =
  Arg.(value & opt int default & info [ "clients" ] ~docv:"N" ~doc)

(* --clients/--warmup/--duration: the closed-loop measurement window. *)
type window = { clients : int; warmup : float; duration : float }

let window_term ?(clients_doc = "Closed-loop client population.") () =
  let warmup =
    Arg.(value & opt float 2.0 & info [ "warmup" ] ~docv:"SECONDS"
           ~doc:"Simulated warm-up before measurement.")
  in
  let duration =
    Arg.(value & opt float 4.0 & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated measurement window.")
  in
  Term.(const (fun clients warmup duration -> { clients; warmup; duration })
        $ clients_arg ~default:100 ~doc:clients_doc $ warmup $ duration)

let observe_term ?clients_doc () =
  let make ((req : Proto.plan_params), seed) w =
    {
      Proto.o_spec = req.spec;
      o_dgemm = req.dgemm;
      o_demand = req.demand;
      o_strategy = req.strategy;
      o_seed = seed;
      o_clients = w.clients;
      o_warmup = w.warmup;
      o_duration = w.duration;
    }
  in
  Term.(const make $ request_term $ window_term ?clients_doc ())

(* Fault injection and the middleware's reaction to it. *)
type faults = {
  crash_rate : float;
  mttr : float;
  drop : float;
  fault_seed : int;
  timeout : float;
  service_timeout : float;
  retries : int;
  backoff : float;
  patience : float;
}

let faults_term =
  let crash_rate =
    Arg.(value & opt float 0.0 & info [ "crash-rate" ] ~docv:"RATE"
           ~doc:"Fault injection: crashes per non-root node per simulated second \
                 (Poisson; 0 disables).")
  in
  let mttr =
    Arg.(value & opt float 2.0 & info [ "mttr" ] ~docv:"SECONDS"
           ~doc:"Fault injection: mean time to repair after a crash.")
  in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"PROB"
           ~doc:"Fault injection: per-message loss probability (0 disables).")
  in
  let fault_seed =
    Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed for the crash schedule and message-loss stream.")
  in
  let timeout =
    Arg.(value & opt float 0.5 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Fault reaction: client-side scheduling round-trip timeout.")
  in
  let service_timeout =
    Arg.(value & opt float 5.0 & info [ "service-timeout" ] ~docv:"SECONDS"
           ~doc:"Fault reaction: client-side service-phase timeout.")
  in
  let retries =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
           ~doc:"Fault reaction: scheduling retries after the first attempt.")
  in
  let backoff =
    Arg.(value & opt float 2.0 & info [ "backoff" ] ~docv:"FACTOR"
           ~doc:"Fault reaction: timeout multiplier per retry (>= 1).")
  in
  let patience =
    Arg.(value & opt float 0.25 & info [ "patience" ] ~docv:"SECONDS"
           ~doc:"Fault reaction: agent-side wait for child replies.")
  in
  let make crash_rate mttr drop fault_seed timeout service_timeout retries
      backoff patience =
    if crash_rate < 0.0 then exit_err "--crash-rate must be >= 0";
    if not (drop >= 0.0 && drop < 1.0) then exit_err "--drop must be in [0, 1)";
    if mttr <= 0.0 then exit_err "--mttr must be > 0";
    { crash_rate; mttr; drop; fault_seed; timeout; service_timeout; retries;
      backoff; patience }
  in
  Term.(const make $ crash_rate $ mttr $ drop $ fault_seed $ timeout
        $ service_timeout $ retries $ backoff $ patience)

(* The schedule for a deployed [tree]: the scripted [crashes], seeded
   crashes over [horizon] and message loss — or no faults at all when
   nothing is injected. *)
let fault_schedule f ?(crashes = []) ~horizon tree =
  if crashes = [] && f.crash_rate <= 0.0 && f.drop <= 0.0 then
    Adept_sim.Faults.none
  else
    let schedule =
      or_exit_typed
        (Adept_sim.Faults.make ~timeout:f.timeout
           ~service_timeout:f.service_timeout ~max_retries:f.retries
           ~backoff:f.backoff ~patience:f.patience ())
    in
    let schedule =
      List.fold_left
        (fun s (node, at, recover_at) ->
          match Adept_sim.Faults.crash ?recover_at ~node ~at s with
          | s -> s
          | exception Invalid_argument m -> exit_err m)
        schedule crashes
    in
    let schedule =
      if f.crash_rate > 0.0 then
        (* everything but the root agent is fair game for crashes *)
        let root = Adept_platform.Node.id (Adept_hierarchy.Tree.root_node tree) in
        let crashable =
          List.filter (fun id -> id <> root)
            (List.map Adept_platform.Node.id (Adept_hierarchy.Tree.nodes tree))
        in
        Adept_sim.Faults.seeded_crashes
          ~rng:(Adept_util.Rng.create f.fault_seed)
          ~nodes:crashable ~rate:f.crash_rate ~mttr:f.mttr ~horizon schedule
      else schedule
    in
    if f.drop > 0.0 then
      Adept_sim.Faults.with_message_loss ~probability:f.drop ~seed:f.fault_seed
        schedule
    else schedule

(* The online redeployment controller's flags; [cooldown] is the
   subcommand's default for --cooldown. *)
type self_heal = {
  policy : string option;
  threshold : float;
  cooldown : float;
  max_replans : int;
  prefer_incremental : bool;
}

let self_heal_term ~cooldown ~policy_doc =
  let policy =
    Arg.(value & opt (some string) None & info [ "self-heal" ] ~docv:"POLICY"
           ~doc:policy_doc)
  in
  let threshold =
    Arg.(value & opt float 0.5 & info [ "degrade-threshold" ] ~docv:"FRACTION"
           ~doc:"Self-heal: degraded when observed throughput falls below this \
                 fraction of the model's rho.")
  in
  let cooldown =
    Arg.(value & opt float cooldown & info [ "cooldown" ] ~docv:"SECONDS"
           ~doc:"Self-heal: minimum time between enacted replans (hysteresis).")
  in
  let max_replans =
    Arg.(value & opt int 3 & info [ "max-replans" ] ~docv:"N"
           ~doc:"Self-heal: replan budget for the whole run.")
  in
  let replan_mode =
    let doc =
      "Self-heal: how replans are planned — incremental (patch the running \
       hierarchy, falling back to a from-scratch plan when the patch is not \
       good enough) or full (always replan from scratch)."
    in
    Arg.(value & opt string "incremental" & info [ "replan-mode" ] ~docv:"MODE" ~doc)
  in
  let make policy threshold cooldown max_replans replan_mode =
    (* validated even when --self-heal is absent: a typo must not pass
       silently *)
    let prefer_incremental =
      match replan_mode with
      | "incremental" -> true
      | "full" -> false
      | other -> exit_err ("--replan-mode must be incremental or full, got " ^ other)
    in
    { policy; threshold; cooldown; max_replans; prefer_incremental }
  in
  Term.(const make $ policy $ threshold $ cooldown $ max_replans $ replan_mode)

(* The controller --self-heal attaches, if any. *)
let controller sh ~strategy ?sample_period ?window ?hold_time ?rollout () =
  Option.map
    (fun name ->
      let policy =
        match name with
        | "off" -> Adept_sim.Controller.Off
        | "eager" -> Adept_sim.Controller.Eager
        | "hysteresis" -> Adept_sim.Controller.Hysteresis
        | other ->
            exit_err ("--self-heal must be off, eager or hysteresis, got " ^ other)
      in
      or_exit_typed
        (Adept_sim.Controller.config ~strategy ?sample_period ?window
           ~threshold:sh.threshold ?hold_time ~cooldown:sh.cooldown
           ~max_replans:sh.max_replans ~prefer_incremental:sh.prefer_incremental
           ?rollout policy))
    sh.policy

let canary_fraction_arg =
  let doc =
    "Canary rollout: fraction of clients routed to the staged hierarchy \
     during the bake (deterministic hash of the client id)."
  in
  Arg.(value & opt float 0.25 & info [ "canary-fraction" ] ~docv:"FRACTION" ~doc)

let bake_window_arg =
  let doc =
    "Canary rollout: simulated seconds the canary is observed before the \
     promote-or-rollback verdict."
  in
  Arg.(value & opt float 2.0 & info [ "bake-window" ] ~docv:"SECONDS" ~doc)

(* A closed-loop DGEMM client population against [tree]. *)
let scenario ?faults ?controller ?demand ~seed ~dgemm ~platform tree =
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make dgemm) in
  Adept_sim.Scenario.make ?faults ?controller ?demand ~seed ~params:Render.params
    ~platform
    ~client:(Adept_workload.Client.closed_loop job)
    tree

(* Accept either a bare hierarchy XML or a full GoDIET deployment document. *)
let load_hierarchy platform path =
  let text = or_exit (read_file path) in
  match Adept_hierarchy.Xml.of_string_on platform text with
  | Ok tree -> tree
  | Error direct_err -> (
      match Adept_godiet.Writer.parse_document text with
      | Ok shape -> (
          match
            Adept_hierarchy.Xml.of_string_on platform (Adept_hierarchy.Xml.to_string shape)
          with
          | Ok tree -> tree
          | Error e -> exit_err ("cannot resolve hierarchy hosts: " ^ e))
      | Error _ -> exit_err ("cannot parse hierarchy: " ^ direct_err))

(* ---------- platform ---------- *)

let platform_cmd =
  let run (spec, _) output =
    let platform = or_exit (Render.platform_of_spec spec) in
    let text = Adept_platform.Catalog.to_string platform in
    (match output with
    | None -> print_string text
    | Some path ->
        Adept_platform.Catalog.save platform path;
        Printf.printf "wrote %s\n" path);
    Format.printf "%a@." Adept_platform.Platform.pp_summary platform
  in
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write the catalog to this file.")
  in
  Cmd.v
    (Cmd.info "platform" ~doc:"Generate or inspect a platform catalog")
    Term.(const run $ platform_term $ output)

(* ---------- plan ---------- *)

let plan_cmd =
  let run (req, _) xml_out dot_out =
    let { Render.platform; wapp; plan; _ } = or_exit (Render.planned req) in
    print_string (Render.plan_text ~platform ~wapp plan);
    Option.iter
      (fun path ->
        Adept_godiet.Writer.save platform plan.Adept.Planner.tree path;
        Printf.printf "wrote GoDIET XML to %s\n" path)
      xml_out;
    Option.iter
      (fun path ->
        Adept_hierarchy.Dot.save plan.Adept.Planner.tree path;
        Printf.printf "wrote DOT to %s\n" path)
      dot_out
  in
  let xml_out =
    Arg.(value & opt (some string) None & info [ "xml" ] ~docv:"FILE"
           ~doc:"Export the plan as a GoDIET XML document.")
  in
  let dot_out =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Export the hierarchy as Graphviz DOT.")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Plan a middleware deployment")
    Term.(const run $ request_term $ xml_out $ dot_out)

(* ---------- eval ---------- *)

let eval_cmd =
  let run (spec, _) dgemm xml =
    let platform = or_exit (Render.platform_of_spec spec) in
    let wapp = or_exit (Render.wapp_of_dgemm dgemm) in
    let tree = load_hierarchy platform xml in
    Format.printf "%s@."
      (Adept.Evaluate.report Render.params
         ~bandwidth:(Adept_platform.Platform.uniform_bandwidth platform)
         ~wapp tree)
  in
  let xml =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HIERARCHY_XML"
           ~doc:"Hierarchy XML file to evaluate.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a hierarchy XML under the throughput model")
    Term.(const run $ platform_term $ dgemm_arg $ xml)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let run ((req : Proto.plan_params), seed) w faults sh rollout_mode
      canary_fraction bake_window =
    let rollout =
      or_exit_typed
        (Result.bind
           (Adept_sim.Rollout.mode_of_string rollout_mode)
           (Adept_sim.Rollout.config ~canary_fraction ~bake_window))
    in
    let { Render.platform; strategy; plan; _ } = or_exit (Render.planned req) in
    let controller = controller sh ~strategy ~rollout () in
    Format.printf "%a@." Adept.Planner.pp_plan plan;
    let tree = plan.Adept.Planner.tree in
    let faults = fault_schedule faults ~horizon:(w.warmup +. w.duration) tree in
    let r =
      Adept_sim.Scenario.run_fixed
        (scenario ~faults ?controller ~demand:(Render.demand_of req.demand) ~seed
           ~dgemm:req.dgemm ~platform tree)
        ~clients:w.clients ~warmup:w.warmup ~duration:w.duration
    in
    Printf.printf
      "simulated: %d clients -> %.2f req/s (model %.2f), %d completed, mean \
       response %.4fs\n"
      w.clients r.Adept_sim.Scenario.throughput plan.Adept.Planner.predicted_rho
      r.Adept_sim.Scenario.completed_total
      (Option.value ~default:Float.nan r.Adept_sim.Scenario.mean_response);
    if not (Adept_sim.Faults.is_none faults) then begin
      let f = r.Adept_sim.Scenario.faults in
      Printf.printf
        "faults: %d crash(es), %d recovery(ies), %d message(s) lost, %d \
         timeout(s), %d request(s) abandoned, %d prune(s), %d rejoin(s)\n"
        f.Adept_sim.Middleware.crashes f.Adept_sim.Middleware.recoveries
        f.Adept_sim.Middleware.messages_lost f.Adept_sim.Middleware.timeouts
        f.Adept_sim.Middleware.abandoned f.Adept_sim.Middleware.prunes
        f.Adept_sim.Middleware.rejoins;
      (match f.Adept_sim.Middleware.recovery_latencies with
      | [] -> ()
      | ls ->
          Printf.printf "mean recovery latency: %.3fs over %d prune(s)\n"
            (List.fold_left ( +. ) 0.0 ls /. float_of_int (List.length ls))
            (List.length ls))
    end;
    if controller <> None then begin
      Printf.printf
        "self-heal: %d replan(s) enacted, %.2fs degraded, %d request(s) lost \
         mid-migration\n"
        (List.length r.Adept_sim.Scenario.replans)
        r.Adept_sim.Scenario.degraded_seconds
        r.Adept_sim.Scenario.migration_lost;
      List.iter
        (fun record -> Format.printf "  %a@." Adept_sim.Controller.pp_record record)
        r.Adept_sim.Scenario.replans
    end
  in
  let self_heal =
    self_heal_term ~cooldown:20.0
      ~policy_doc:"Attach the online redeployment controller: off (monitor only), \
                   eager, or hysteresis."
  in
  let rollout_mode =
    let doc =
      "Self-heal: how accepted replans are enacted — off (one-shot swap, the \
       default), direct (one-shot swap recorded as a decision trail), or canary \
       (stage on a client fraction, bake against the alert rules, then promote \
       or roll back)."
    in
    Arg.(value & opt string "off" & info [ "rollout" ] ~docv:"MODE" ~doc)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Plan and measure a deployment in the simulator")
    Term.(const run $ request_term $ window_term () $ faults_term $ self_heal
          $ rollout_mode $ canary_fraction_arg $ bake_window_arg)

(* ---------- observe ---------- *)

let observe_cmd =
  let run o prom_out jsonl_out csv_out max_dev =
    let { Render.text; registry; report; _ } = or_exit (Render.observed o) in
    print_string text;
    let families = Adept_obs.Registry.snapshot registry in
    Option.iter
      (fun path ->
        write_file path (Adept_obs.Export.prometheus families);
        Printf.printf "wrote Prometheus text to %s\n" path)
      prom_out;
    Option.iter
      (fun path ->
        write_file path (Adept_obs.Export.jsonl families);
        Printf.printf "wrote JSON lines to %s\n" path)
      jsonl_out;
    Option.iter
      (fun path ->
        Adept_util.Csv.save (Adept_obs.Export.csv families) path;
        Printf.printf "wrote CSV to %s\n" path)
      csv_out;
    match max_dev with
    | None -> ()
    | Some tol -> (
        match Adept_obs.Report.max_deviation report with
        | None -> exit_err "observe: nothing measured, cannot gate on deviation"
        | Some d when d > tol ->
            exit_err
              (Printf.sprintf
                 "observe: max model-vs-measured deviation %.2f%% exceeds \
                  tolerance %.2f%%"
                 (100.0 *. d) (100.0 *. tol))
        | Some d ->
            Printf.printf "deviation gate passed: %.2f%% <= %.2f%%\n"
              (100.0 *. d) (100.0 *. tol))
  in
  let prom_out =
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE"
           ~doc:"Export all metrics in Prometheus text format.")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Export all metrics as JSON lines.")
  in
  let csv_out =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Export all metrics as a flat CSV table.")
  in
  let max_dev =
    Arg.(value & opt (some float) None & info [ "max-deviation" ] ~docv:"FRACTION"
           ~doc:"Fail (exit 1) if any model-vs-measured relative deviation \
                 exceeds this fraction — the CI fidelity gate.")
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Run an instrumented simulation and report model-vs-measured costs")
    Term.(const run
          $ observe_term
              ~clients_doc:"Closed-loop client population (saturate for a \
                            meaningful rho comparison)."
              ()
          $ prom_out $ jsonl_out $ csv_out $ max_dev)

(* ---------- trace ---------- *)

let trace_cmd =
  let run ((req : Proto.plan_params), seed) w sample_rate slowest chrome_out
      dot_out assert_match =
    if not (sample_rate >= 0.0 && sample_rate <= 1.0) then
      exit_err "--trace-sample-rate must be in [0, 1]";
    if slowest < 1 then exit_err "--slowest must be >= 1";
    let { Render.platform; wapp; plan; _ } = or_exit (Render.planned req) in
    let tree = plan.Adept.Planner.tree in
    Format.printf "%a@." Adept.Planner.pp_plan plan;
    let registry = Adept_obs.Registry.create () in
    let store = Adept_obs.Request_trace.create ~sample_rate ~max_traces:slowest () in
    let r =
      Adept_sim.Scenario.run_fixed ~registry ~rtrace:store
        (scenario ~seed ~dgemm:req.dgemm ~platform tree)
        ~clients:w.clients ~warmup:w.warmup ~duration:w.duration
    in
    Printf.printf
      "simulated: %d clients -> %.2f req/s over %.1fs after %.1fs warm-up\n\n"
      w.clients r.Adept_sim.Scenario.throughput w.duration w.warmup;
    let utilization =
      match
        Adept_obs.Registry.find registry Adept_obs.Semconv.node_utilization_ratio
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
      Adept.Evaluate.bottleneck_element Render.params
        ~bandwidth:(Adept_platform.Platform.uniform_bandwidth platform)
        ~wapp tree
    in
    let attribution =
      Adept_obs.Attribution.build ~store ~tree ~utilization ~predicted ()
    in
    print_string (Adept_obs.Attribution.render attribution);
    (match Adept_obs.Request_trace.exemplars store with
    | [] -> ()
    | worst :: _ ->
        Printf.printf "\nslowest request (trace %d, %.4fs):\n%s"
          worst.Adept_obs.Request_trace.tr_id
          (Adept_obs.Request_trace.duration worst)
          (Adept_obs.Critical_path.render worst));
    Option.iter
      (fun path ->
        write_file path (Adept_obs.Export.chrome_trace store);
        Printf.printf "wrote Chrome trace JSON to %s\n" path)
      chrome_out;
    Option.iter
      (fun path ->
        write_file path (Adept_obs.Attribution.heat_dot attribution ~tree);
        Printf.printf "wrote utilization-heat DOT to %s\n" path)
      dot_out;
    if assert_match then
      match Adept_obs.Attribution.matches attribution with
      | Some true ->
          Printf.printf "bottleneck gate passed: measurement matches the model\n"
      | Some false ->
          exit_err "trace: measured bottleneck disagrees with the model prediction"
      | None -> exit_err "trace: nothing measured (or no prediction), cannot gate"
  in
  let sample_rate =
    Arg.(value & opt float 1.0 & info [ "trace-sample-rate" ] ~docv:"FRACTION"
           ~doc:"Fraction of requests traced, decided by a deterministic hash \
                 of the trace id (0 disables tracing, 1 traces everything).")
  in
  let slowest =
    Arg.(value & opt int 16 & info [ "slowest" ] ~docv:"N"
           ~doc:"Retain the N slowest traces as exemplars (evictions are \
                 counted as dropped).")
  in
  let chrome_out =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Export retained traces as Chrome trace-event JSON \
                 (chrome://tracing, Perfetto).")
  in
  let dot_out =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Export the hierarchy as Graphviz DOT with elements shaded by \
                 critical-path share.")
  in
  let assert_match =
    Arg.(value & flag & info [ "assert-match" ]
           ~doc:"Fail (exit 1) unless the measured bottleneck element matches \
                 the model's Eqs. 6-14 prediction — the CI smoke gate.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace per-request critical paths and attribute the bottleneck")
    Term.(const run $ request_term
          $ window_term
              ~clients_doc:"Closed-loop client population (saturate for a \
                            meaningful bottleneck)."
              ()
          $ sample_rate $ slowest $ chrome_out $ dot_out $ assert_match)

(* ---------- monitor ---------- *)

(* "NODE:AT" or "NODE:AT:RECOVER" -> (node, at, recover_at option) *)
let parse_crash spec =
  let fail () = exit_err ("--crash expects NODE:AT[:RECOVER], got " ^ spec) in
  let int_ s = match int_of_string_opt s with Some v -> v | None -> fail () in
  let float_ s =
    match float_of_string_opt s with Some v -> v | None -> fail ()
  in
  match String.split_on_char ':' spec with
  | [ node; at ] -> (int_ node, float_ at, None)
  | [ node; at; recover ] -> (int_ node, float_ at, Some (float_ recover))
  | _ -> fail ()

let monitor_cmd =
  let run ((req : Proto.plan_params), seed) w scrape_interval retention
      rules_file crashes faults sh sample_period window hold_time
      drift_tolerance drift_hold rule_window timeline_out alerts_out html_out =
    if scrape_interval < 0.0 then exit_err "--scrape-interval must be >= 0";
    let crashes = List.map parse_crash crashes in
    let { Render.platform; wapp; strategy; plan } = or_exit (Render.planned req) in
    let tree = plan.Adept.Planner.tree in
    Format.printf "%a@." Adept.Planner.pp_plan plan;
    let root = Adept_platform.Node.id (Adept_hierarchy.Tree.root_node tree) in
    let deployed =
      List.map Adept_platform.Node.id (Adept_hierarchy.Tree.nodes tree)
    in
    List.iter
      (fun (node, _, _) ->
        if node = root then exit_err "--crash: cannot crash the root agent";
        if not (List.mem node deployed) then
          exit_err
            (Printf.sprintf "--crash: node %d is not part of the deployment" node))
      crashes;
    let faults =
      fault_schedule faults ~crashes ~horizon:(w.warmup +. w.duration) tree
    in
    let controller =
      controller sh ~strategy ~sample_period ~window ~hold_time ()
    in
    let rules =
      let model =
        Adept_sim.Monitor.model_rules ~tolerance:drift_tolerance
          ~hold:drift_hold ~window:rule_window ~params:Render.params ~wapp tree
      in
      let extra =
        match rules_file with
        | None -> []
        | Some path -> (
            match Adept_obs.Rule.parse (or_exit (read_file path)) with
            | Ok rs -> rs
            | Error m -> exit_err ("cannot parse " ^ path ^ ": " ^ m))
      in
      model @ extra
    in
    let monitor =
      or_exit_typed
        (Adept_sim.Monitor.create ~interval:scrape_interval ?retention
           ~selectors:(Adept_sim.Monitor.default_selectors tree)
           rules)
    in
    let r =
      Adept_sim.Scenario.run_fixed ~monitor
        (scenario ~faults ?controller ~demand:(Render.demand_of req.demand) ~seed
           ~dgemm:req.dgemm ~platform tree)
        ~clients:w.clients ~warmup:w.warmup ~duration:w.duration
    in
    Printf.printf
      "simulated: %d clients -> %.2f req/s (model %.2f), %d completed, %d lost\n"
      w.clients r.Adept_sim.Scenario.throughput plan.Adept.Planner.predicted_rho
      r.Adept_sim.Scenario.completed_total r.Adept_sim.Scenario.lost_total;
    let alerts = Adept_sim.Monitor.alerts monitor in
    let transitions = Adept_obs.Alert.transitions alerts in
    Printf.printf "monitor: %d scrape(s) at %gs intervals, %d rule(s), %d \
                   alert transition(s)\n"
      (Adept_sim.Monitor.scrapes monitor)
      scrape_interval (List.length rules) (List.length transitions);
    List.iter
      (fun (tr : Adept_obs.Alert.transition) ->
        Printf.printf "  %8.3fs %-8s %s (%s)%s\n" tr.Adept_obs.Alert.at
          (match tr.Adept_obs.Alert.edge with
          | Adept_obs.Alert.To_pending -> "pending"
          | Adept_obs.Alert.To_firing -> "FIRING"
          | Adept_obs.Alert.To_resolved -> "resolved")
          tr.Adept_obs.Alert.rule.Adept_obs.Rule.name
          (Adept_obs.Rule.severity_name
             tr.Adept_obs.Alert.rule.Adept_obs.Rule.severity)
          (if Float.is_nan tr.Adept_obs.Alert.value then ""
           else Printf.sprintf ", value %.3f" tr.Adept_obs.Alert.value))
      transitions;
    (match Adept_obs.Alert.firing_names alerts with
    | [] -> ()
    | names ->
        Printf.printf "still firing at end of run: %s\n" (String.concat ", " names));
    if not (Adept_sim.Faults.is_none faults) then begin
      let f = r.Adept_sim.Scenario.faults in
      Printf.printf
        "faults: %d crash(es), %d recovery(ies), %d message(s) lost, %d \
         timeout(s), %d request(s) abandoned\n"
        f.Adept_sim.Middleware.crashes f.Adept_sim.Middleware.recoveries
        f.Adept_sim.Middleware.messages_lost f.Adept_sim.Middleware.timeouts
        f.Adept_sim.Middleware.abandoned
    end;
    if controller <> None then begin
      Printf.printf
        "self-heal: %d replan(s) enacted, %.2fs degraded, %d request(s) \
         lost mid-migration\n"
        (List.length r.Adept_sim.Scenario.replans)
        r.Adept_sim.Scenario.degraded_seconds
        r.Adept_sim.Scenario.migration_lost;
      List.iter
        (fun record -> Format.printf "  %a@." Adept_sim.Controller.pp_record record)
        r.Adept_sim.Scenario.replans
    end;
    Option.iter
      (fun path ->
        write_file path (Adept_obs.Export.alert_timeline_jsonl alerts);
        Printf.printf "wrote alert timeline to %s\n" path)
      timeline_out;
    Option.iter
      (fun path ->
        write_file path (Adept_obs.Export.alerts_prom alerts);
        Printf.printf "wrote ALERTS samples to %s\n" path)
      alerts_out;
    Option.iter
      (fun path ->
        write_file path
          (Adept_obs.Dashboard.render
             ~timeseries:(Adept_sim.Monitor.timeseries monitor)
             ~alerts
             (Adept_sim.Monitor.default_panels tree ~window:rule_window));
        Printf.printf "wrote dashboard to %s\n" path)
      html_out
  in
  let scrape_interval =
    Arg.(value & opt float 0.25 & info [ "scrape-interval" ] ~docv:"SECONDS"
           ~doc:"Seconds between registry scrapes and alert evaluations \
                 (0 disables the monitor).")
  in
  let retention =
    Arg.(value & opt (some float) None & info [ "retention" ] ~docv:"SECONDS"
           ~doc:"Time-series retention window (default: sized from the \
                 longest rule window; set to the run length to keep every \
                 scrape for the dashboard).")
  in
  let rules_file =
    Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"FILE"
           ~doc:"Alert-rule file evaluated alongside the built-in model rules \
                 (one rule per line; see the OBSERVABILITY notes for the \
                 grammar).")
  in
  let crashes =
    Arg.(value & opt_all string [] & info [ "crash" ] ~docv:"NODE:AT[:RECOVER]"
           ~doc:"Crash a specific node at a specific simulated time, with an \
                 optional recovery time (repeatable; deterministic, unlike \
                 --crash-rate).")
  in
  let self_heal =
    self_heal_term ~cooldown:5.0
      ~policy_doc:"Attach the online redeployment controller: off (monitor \
                   only), eager, or hysteresis.  Enacted replans cite the \
                   alerts firing at trigger time."
  in
  let sample_period =
    Arg.(value & opt float 0.5 & info [ "sample-period" ] ~docv:"SECONDS"
           ~doc:"Self-heal: seconds between controller throughput samples.")
  in
  let window =
    Arg.(value & opt float 2.0 & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Self-heal: sliding throughput measurement window.")
  in
  let hold_time =
    Arg.(value & opt float 1.0 & info [ "hold-time" ] ~docv:"SECONDS"
           ~doc:"Self-heal: sustained degradation before a hysteresis \
                 trigger.")
  in
  let drift_tolerance =
    Arg.(value & opt float 0.25 & info [ "drift-tolerance" ] ~docv:"FRACTION"
           ~doc:"model-drift rule: relative deviation of measured throughput \
                 from the Eq. 16 prediction that counts as drift.")
  in
  let drift_hold =
    Arg.(value & opt float 1.0 & info [ "drift-hold" ] ~docv:"SECONDS"
           ~doc:"Built-in rules: how long a deviation must hold before the \
                 alert fires (Prometheus for: semantics).")
  in
  let rule_window =
    Arg.(value & opt float 2.0 & info [ "rule-window" ] ~docv:"SECONDS"
           ~doc:"Built-in rules: trailing measurement window for rates and \
                 means.")
  in
  let timeline_out =
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE"
           ~doc:"Export the chronological alert timeline as JSON lines \
                 (deterministic; golden-diffed in CI).")
  in
  let alerts_out =
    Arg.(value & opt (some string) None & info [ "alerts-prom" ] ~docv:"FILE"
           ~doc:"Export the alert transitions as Prometheus ALERTS-style \
                 samples.")
  in
  let html_out =
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE"
           ~doc:"Write a self-contained static HTML dashboard (inline SVG \
                 sparklines, alert bands, no JavaScript).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Run under continuous monitoring: scrapes, alert rules, \
             model-drift detection")
    Term.(const run $ request_term $ window_term () $ scrape_interval $ retention
          $ rules_file $ crashes $ faults_term $ self_heal $ sample_period
          $ window $ hold_time $ drift_tolerance $ drift_hold $ rule_window
          $ timeline_out $ alerts_out $ html_out)

(* ---------- replan ---------- *)

let replan_cmd =
  let run r = print_string (fst (or_exit (Render.replan r))) in
  Cmd.v
    (Cmd.info "replan"
       ~doc:"Rebuild a deployment after node failures and report the throughput hit")
    Term.(const run $ replan_term)

(* ---------- rollout ---------- *)

let rollout_cmd =
  let run flavor mode canary_fraction bake_window timeline_out html_out expect =
    let module SH = Adept_experiments.Self_heal in
    let flavor = or_exit_typed (SH.rollout_flavor_of_string flavor) in
    let mode = or_exit_typed (Adept_sim.Rollout.mode_of_string mode) in
    let r, monitor, tree =
      match
        SH.run_rollout ~mode ~canary_fraction ~bake_window ~flavor ()
      with
      | r -> r
      | exception Invalid_argument m -> exit_err m
    in
    let alerts = Adept_sim.Monitor.alerts monitor in
    Printf.printf
      "rollout demo (%s flavor, %s mode): %.2f req/s, %d completed, %d lost \
       (%d in migration pauses)\n"
      (SH.rollout_flavor_name flavor)
      (Adept_sim.Rollout.mode_name mode)
      r.Adept_sim.Scenario.throughput r.Adept_sim.Scenario.completed_total
      r.Adept_sim.Scenario.lost_total r.Adept_sim.Scenario.migration_lost;
    List.iter
      (fun record -> Format.printf "  %a@." Adept_sim.Controller.pp_record record)
      r.Adept_sim.Scenario.replans;
    let trail =
      List.concat_map
        (fun (rep : Adept_sim.Controller.replan_record) ->
          match rep.Adept_sim.Controller.rollout with
          | Some ro -> ro.Adept_sim.Rollout.trail
          | None -> [])
        r.Adept_sim.Scenario.replans
    in
    List.iter
      (fun (e : Adept_sim.Rollout.event) ->
        Printf.printf "  %8.3fs %-16s%s\n" e.Adept_sim.Rollout.at
          (Adept_sim.Rollout.step_name e.Adept_sim.Rollout.step)
          (match e.Adept_sim.Rollout.alerts with
          | [] -> ""
          | names -> " [" ^ String.concat "; " names ^ "]"))
      trail;
    Option.iter
      (fun path ->
        write_file path (Adept_sim.Rollout.timeline_jsonl ~alerts trail);
        Printf.printf "wrote rollout timeline to %s\n" path)
      timeline_out;
    Option.iter
      (fun path ->
        let spans =
          List.concat_map
            (fun (rep : Adept_sim.Controller.replan_record) ->
              match rep.Adept_sim.Controller.rollout with
              | Some ro -> Adept_sim.Rollout.phase_spans ro.Adept_sim.Rollout.trail
              | None -> [])
            r.Adept_sim.Scenario.replans
        in
        write_file path
          (Adept_obs.Dashboard.render ~title:"adept rollout"
             ~timeseries:(Adept_sim.Monitor.timeseries monitor)
             ~alerts ~spans
             (Adept_sim.Monitor.default_panels tree ~window:2.0));
        Printf.printf "wrote dashboard to %s\n" path)
      html_out;
    match expect with
    | None -> ()
    | Some expected ->
        let outcomes =
          List.filter_map
            (fun (rep : Adept_sim.Controller.replan_record) ->
              Option.map
                (fun (ro : Adept_sim.Rollout.record) ->
                  Adept_sim.Rollout.outcome_name ro.Adept_sim.Rollout.outcome)
                rep.Adept_sim.Controller.rollout)
            r.Adept_sim.Scenario.replans
        in
        if not (List.mem expected outcomes) then
          exit_err
            (Printf.sprintf "expected rollout outcome %s, got [%s]" expected
               (String.concat "; " outcomes))
  in
  let flavor =
    Arg.(value & opt string "drift" & info [ "flavor" ] ~docv:"FLAVOR"
           ~doc:"Demo flavor: drift (a second crash mid-bake condemns the \
                 canary) or healthy (the canary promotes).")
  in
  let timeline =
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE"
           ~doc:"Write the merged alert + rollout decision timeline (JSON \
                 lines) to $(docv).")
  in
  let html =
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE"
           ~doc:"Render the monitor dashboard with rollout phase bands to \
                 $(docv) (SVG).")
  in
  let expect =
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"OUTCOME"
           ~doc:"Exit non-zero unless some rollout finished with $(docv) \
                 (promoted, rolled-back or direct) — the CI gate.")
  in
  let mode =
    Arg.(value & opt string "canary" & info [ "rollout" ] ~docv:"MODE"
           ~doc:"Enactment mode for the demo: canary (the default here), \
                 direct or off.")
  in
  Cmd.v
    (Cmd.info "rollout"
       ~doc:"Run the canonical staged-rollout demo: canary, bake, promote or \
             roll back")
    Term.(const run $ flavor $ mode $ canary_fraction_arg
          $ bake_window_arg $ timeline $ html $ expect)

(* ---------- compare ---------- *)

let compare_cmd =
  let run (spec, seed) dgemm demand strategies measure clients =
    let platform = or_exit (Render.platform_of_spec spec) in
    let wapp = or_exit (Render.wapp_of_dgemm dgemm) in
    let strategies =
      List.map
        (fun s -> or_exit (Render.strategy_of_string s))
        (if strategies = [] then [ "heuristic"; "star"; "homogeneous" ]
         else strategies)
    in
    let results =
      Adept.Planner.compare_strategies Render.params ~platform ~wapp
        ~demand:(Render.demand_of demand) strategies
    in
    let table =
      List.fold_left
        (fun table (strategy, outcome) ->
          match outcome with
          | Error e ->
              Adept_util.Table.add_row table
                [ Adept.Planner.strategy_name strategy;
                  "error: " ^ Adept.Error.to_string e; "-"; "-" ]
          | Ok plan ->
              let measured =
                if not measure then "-"
                else
                  let r =
                    Adept_sim.Scenario.run_fixed
                      (scenario ~seed ~dgemm ~platform plan.Adept.Planner.tree)
                      ~clients ~warmup:2.0 ~duration:4.0
                  in
                  Adept_util.Table.cell_float r.Adept_sim.Scenario.throughput
              in
              Adept_util.Table.add_row table
                [
                  Adept.Planner.strategy_name strategy;
                  Adept_hierarchy.Metrics.describe plan.Adept.Planner.tree;
                  Adept_util.Table.cell_float plan.Adept.Planner.predicted_rho;
                  measured;
                ])
        (Adept_util.Table.create
           [ "strategy"; "shape"; "model rho"; "measured req/s" ])
        results
    in
    print_string (Adept_util.Table.render table)
  in
  let strategies =
    Arg.(value & pos_all string [] & info [] ~docv:"STRATEGY"
           ~doc:"Strategies to compare (default: heuristic star homogeneous).")
  in
  let measure =
    Arg.(value & flag & info [ "measure" ]
           ~doc:"Also measure each plan in the simulator.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Plan with several strategies side by side")
    Term.(const run $ platform_term $ dgemm_arg $ demand_arg $ strategies
          $ measure $ clients_arg ~default:150 ~doc:"Client population for --measure.")

(* ---------- improve ---------- *)

let improve_cmd =
  let run (spec, _) dgemm xml xml_out =
    let platform = or_exit (Render.platform_of_spec spec) in
    let wapp = or_exit (Render.wapp_of_dgemm dgemm) in
    let tree = load_hierarchy platform xml in
    let r = or_exit (Adept.Improver.improve Render.params ~platform ~wapp tree) in
    let before = Adept.Evaluate.rho_on Render.params ~platform ~wapp tree in
    Printf.printf "rho %.2f -> %.2f req/s after %d change(s)%s\n" before
      r.Adept.Improver.predicted_rho
      (List.length r.Adept.Improver.steps)
      (if r.Adept.Improver.converged then "" else " (iteration limit)");
    List.iter
      (fun (s : Adept.Improver.step) ->
        let action =
          match s.Adept.Improver.action with
          | Adept.Improver.Added_server (srv, agent) ->
              Printf.sprintf "added server %d under agent %d" srv agent
          | Adept.Improver.Split_agent (agent, fresh) ->
              Printf.sprintf "split agent %d with new agent %d" agent fresh
          | Adept.Improver.Removed_server srv ->
              Printf.sprintf "removed server %d" srv
        in
        Printf.printf "  %s: %.2f -> %.2f req/s\n" action
          s.Adept.Improver.rho_before s.Adept.Improver.rho_after)
      r.Adept.Improver.steps;
    match xml_out with
    | None -> print_string (Adept_hierarchy.Xml.to_string r.Adept.Improver.tree)
    | Some path ->
        Adept_hierarchy.Xml.save r.Adept.Improver.tree path;
        Printf.printf "wrote improved hierarchy to %s\n" path
  in
  let xml =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HIERARCHY_XML"
           ~doc:"Deployed hierarchy to improve.")
  in
  let xml_out =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write the improved hierarchy here (default: stdout).")
  in
  Cmd.v
    (Cmd.info "improve"
       ~doc:"Iteratively remove the bottlenecks of an existing deployment")
    Term.(const run $ platform_term $ dgemm_arg $ xml $ xml_out)

(* ---------- latency ---------- *)

let latency_cmd =
  let run (req, _) rates =
    let { Render.platform; wapp; plan; _ } = or_exit (Render.planned req) in
    Format.printf "%a@." Adept.Planner.pp_plan plan;
    let rho = plan.Adept.Planner.predicted_rho in
    let rates =
      if rates <> [] then rates
      else List.map (fun f -> f *. rho) [ 0.25; 0.5; 0.75; 0.9; 0.99 ]
    in
    let b = Adept_platform.Platform.uniform_bandwidth platform in
    List.iter
      (fun rate ->
        Format.printf "%a@."
          Adept.Latency.pp
          (Adept.Latency.estimate Render.params ~bandwidth:b ~wapp ~rate
             plan.Adept.Planner.tree))
      rates
  in
  let rates =
    Arg.(value & opt_all float [] & info [ "rate" ] ~docv:"REQS"
           ~doc:"Arrival rate to estimate at (repeatable; default: fractions of rho).")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Estimate response time under load for a planned deployment")
    Term.(const run $ request_term $ rates)

(* ---------- experiment ---------- *)

let experiment_cmd =
  let run ids quick seed out_dir list_only =
    if list_only then begin
      List.iter
        (fun (e : Adept_experiments.Registry.experiment) ->
          Printf.printf "%-20s %s\n" e.id e.title)
        Adept_experiments.Registry.all;
      exit 0
    end;
    let ctx =
      {
        Adept_experiments.Common.fidelity =
          (if quick then Adept_experiments.Common.Quick
           else Adept_experiments.Common.Full);
        seed;
        out_dir;
      }
    in
    let selected =
      match ids with
      | [] -> Adept_experiments.Registry.all
      | ids ->
          List.map
            (fun id ->
              match Adept_experiments.Registry.find id with
              | Some e -> e
              | None -> exit_err ("unknown experiment " ^ id))
            ids
    in
    List.iter
      (fun (e : Adept_experiments.Registry.experiment) ->
        let report = e.run ctx in
        print_string (Adept_experiments.Common.render report);
        Adept_experiments.Common.write_series ctx report;
        print_newline ())
      selected
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (default: all). Use --list to see them.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps for a fast pass.")
  in
  let out_dir =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write figure series as CSV files into this directory.")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids.") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run paper reproduction experiments")
    Term.(const run $ ids $ quick $ seed_arg $ out_dir $ list_only)

(* ---------- bench-node ---------- *)

let bench_node_cmd =
  let run () =
    let daxpy = Adept_calibration.Linpack.daxpy_mflops () in
    let dgemm = Adept_calibration.Linpack.dgemm_mflops () in
    Printf.printf "daxpy: %.0f MFlop/s\ndgemm: %.0f MFlop/s\n" daxpy dgemm
  in
  Cmd.v
    (Cmd.info "bench-node"
       ~doc:"Measure this machine's MFlop/s with the Linpack mini-benchmark")
    Term.(const run $ const ())

(* ---------- serve / query ---------- *)

module Serve = Adept_serve.Server
module Query = Adept_serve.Client

let address_arg =
  let doc =
    "Planning-server address: unix:<path>, tcp:<host>:<port>, or a bare Unix \
     socket path."
  in
  Arg.(value & opt string "unix:adept.sock"
       & info [ "address"; "a" ] ~docv:"ADDR" ~doc)

let parse_address s =
  match Serve.address_of_string s with
  | Ok a -> a
  | Error e -> exit_err ("bad --address: " ^ e)

let serve_cmd =
  let run address workers shards cache_capacity max_requests prom_out live
      trace_sample_rate access_log rules_file scrape_interval journal
      journal_segment_bytes journal_max_segments otlp =
    let registry = Adept_obs.Registry.create () in
    (* Any observability flag switches the live layer on; [--live] asks
       for it with the defaults. *)
    let obs_on =
      live || trace_sample_rate <> None || access_log <> None
      || rules_file <> None || scrape_interval <> None || journal <> None
      || otlp <> None
    in
    let otlp_sink =
      Option.map
        (fun s ->
          match Serve.otlp_sink_of_string s with
          | Ok sink -> sink
          | Error e -> exit_err ("bad --otlp: " ^ e))
        otlp
    in
    let obs =
      if not obs_on then None
      else
        let base = Serve.default_obs () in
        let rules =
          match rules_file with
          | None -> base.Serve.rules
          | Some path -> (
              match Adept_obs.Rule.parse (or_exit (read_file path)) with
              | Ok rules -> rules
              | Error e -> exit_err ("bad --rules file: " ^ e))
        in
        Some
          {
            base with
            Serve.trace_sample_rate =
              Option.value ~default:base.Serve.trace_sample_rate
                trace_sample_rate;
            rules;
            scrape_interval =
              Option.value ~default:base.Serve.scrape_interval scrape_interval;
            access_log;
            prom_path = prom_out;
            journal_dir = journal;
            journal_segment_bytes =
              Option.value ~default:base.Serve.journal_segment_bytes
                journal_segment_bytes;
            journal_max_segments =
              Option.value ~default:base.Serve.journal_max_segments
                journal_max_segments;
            otlp = otlp_sink;
          }
    in
    Serve.run
      {
        Serve.address = parse_address address;
        workers;
        shards;
        cache_capacity;
        max_requests;
        registry = Some registry;
        obs;
      };
    Option.iter
      (fun path ->
        (* With the live layer on the server already re-exported this
           file on every scrape and once more at teardown. *)
        if not obs_on then
          write_file path
            (Adept_obs.Export.prometheus (Adept_obs.Registry.snapshot registry));
        Printf.printf "wrote Prometheus text to %s\n" path)
      prom_out
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains (default: this machine's recommended domain \
                 count minus one).")
  in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N"
           ~doc:"Planner shards for the heuristic (default: the worker count). \
                 Any value yields bit-identical plans; it only changes how the \
                 work spreads across domains.")
  in
  let cache_capacity =
    Arg.(value & opt int 128 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Plan-fragment cache entries (LRU).")
  in
  let max_requests =
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N"
           ~doc:"Drain and exit after this many requests (tests/CI).")
  in
  let prom_out =
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE"
           ~doc:"Export the server metrics in Prometheus text format: at drain, \
                 and (with live observability on) re-written atomically on \
                 every scrape so it can be read mid-run.")
  in
  let live =
    Arg.(value & flag & info [ "live" ]
           ~doc:"Turn on wall-clock observability with the defaults: request \
                 span tracing, runtime-events GC profiling, a periodic metrics \
                 scrape and the built-in alert rules.  Never changes answers — \
                 responses are byte-identical with or without it.")
  in
  let trace_sample_rate =
    Arg.(value & opt (some float) None & info [ "trace-sample-rate" ]
           ~docv:"RATE"
           ~doc:"Fraction of trace-carrying requests to record as span chains \
                 (0..1, default 1).  Sampling is a deterministic hash of the \
                 client-sent trace id — no RNG.  Implies live observability.")
  in
  let access_log =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per served request: trace id, method, \
                 platform digest, cache hit/miss, shard count, wall-clock \
                 duration, status.  Implies live observability.")
  in
  let rules_file =
    Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"FILE"
           ~doc:"Alert rules file (see `adept monitor` rule syntax) evaluated \
                 against the live metrics every scrape; replaces the built-in \
                 serve rules.  Implies live observability.")
  in
  let scrape_interval =
    Arg.(value & opt (some float) None & info [ "scrape-interval" ]
           ~docv:"SECONDS"
           ~doc:"Wall-clock seconds between metric scrapes and alert \
                 evaluations (default 1).  Implies live observability.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
           ~doc:"Crash-safe flight recorder: append every finished span \
                 chain, scrape summary, alert transition and access-log line \
                 to rotated segments in this directory, replayable later with \
                 `adept obs replay`.  Implies live observability.")
  in
  let journal_segment_bytes =
    Arg.(value & opt (some int) None & info [ "journal-segment-bytes" ]
           ~docv:"BYTES"
           ~doc:"Rotate flight-recorder segments past this size (default \
                 4 MiB).")
  in
  let journal_max_segments =
    Arg.(value & opt (some int) None & info [ "journal-max-segments" ]
           ~docv:"N"
           ~doc:"Retain at most N flight-recorder segments, pruning the \
                 oldest (default 8).")
  in
  let otlp =
    Arg.(value & opt (some string) None & info [ "otlp" ] ~docv:"SINK"
           ~doc:"Push an OTLP/JSON document (sampled spans plus a metrics \
                 snapshot) on every scrape: a file path (re-written \
                 atomically) or tcp:<host>:<port> (one connection per push). \
                 Implies live observability.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the planner as a long-lived, concurrent, sharded service")
    Term.(const run $ address_arg $ workers $ shards $ cache_capacity
          $ max_requests $ prom_out $ live $ trace_sample_rate $ access_log
          $ rules_file $ scrape_interval $ journal $ journal_segment_bytes
          $ journal_max_segments $ otlp)

let query_call address request =
  (* always carry trace context: ids are the connection's request ids
     (deterministic, no RNG), servers without observability — and old
     servers — simply ignore the envelope member *)
  match Query.connect_retry ~trace_base:0 (parse_address address) with
  | Error e -> exit_err ("cannot connect: " ^ e)
  | Ok c -> (
      let r = Query.call c request in
      Query.close c;
      match r with
      | Error e -> exit_err e
      | Ok (Proto.Error kind) -> exit_err (snd (Proto.error_kind_fields kind))
      | Ok resp -> resp)

let query_plan_cmd =
  let run address (req, _) no_cache =
    match
      query_call address (Proto.Plan { req with Proto.use_cache = not no_cache })
    with
    | Proto.Plan_ok { text; _ } -> print_string text
    | _ -> exit_err "server sent a mismatched response"
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Bypass the server's plan cache (always plan afresh).")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Plan via the server; output matches `adept plan`")
    Term.(const run $ address_arg $ request_term $ no_cache)

let query_replan_cmd =
  let run address r =
    match query_call address (Proto.Replan r) with
    | Proto.Replan_ok { text; _ } -> print_string text
    | _ -> exit_err "server sent a mismatched response"
  in
  Cmd.v
    (Cmd.info "replan"
       ~doc:"Replan via the server; output matches `adept replan`")
    Term.(const run $ address_arg $ replan_term)

let query_observe_cmd =
  let run address o =
    match query_call address (Proto.Observe o) with
    | Proto.Observe_ok { text; _ } -> print_string text
    | _ -> exit_err "server sent a mismatched response"
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Instrumented simulation via the server; output matches `adept \
             observe`")
    Term.(const run $ address_arg $ observe_term ())

let print_stats (s : Proto.server_stats) =
  Printf.printf "requests: plan=%d replan=%d observe=%d stats=%d\n"
    s.Proto.plan_requests s.Proto.replan_requests s.Proto.observe_requests
    s.Proto.stats_requests;
  Printf.printf "errors: %d\n" s.Proto.errors;
  Printf.printf "cache: hits=%d misses=%d evictions=%d invalidations=%d\n"
    s.Proto.cache_hits s.Proto.cache_misses s.Proto.cache_evictions
    s.Proto.cache_invalidations;
  Printf.printf "coalesced: %d\n" s.Proto.coalesced;
  Printf.printf "workers: %d shards: %d\n" s.Proto.workers s.Proto.shards;
  match s.Proto.live with
  | None -> ()
  | Some l ->
      Printf.printf "uptime: %.1fs\n" l.Proto.uptime_seconds;
      Printf.printf "latency: p50=%.3fms p99=%.3fms\n"
        (l.Proto.latency_p50 *. 1e3) (l.Proto.latency_p99 *. 1e3);
      Printf.printf "cache hit ratio: %.1f%%\n"
        (l.Proto.cache_hit_ratio *. 100.0);
      Printf.printf "gc pause p99: %.3fms\n" (l.Proto.gc_pause_p99 *. 1e3);
      Printf.printf "domain busy:%s\n"
        (String.concat ""
           (List.mapi
              (fun i r -> Printf.sprintf " [%d]=%.0f%%" i (r *. 100.0))
              l.Proto.domain_busy));
      Printf.printf "traces sampled: %d\n" l.Proto.traces_sampled;
      Printf.printf "alerts firing:%s\n"
        (match l.Proto.firing_alerts with
        | [] -> " none"
        | alerts ->
            String.concat ""
              (List.map
                 (fun (name, sev) -> Printf.sprintf " %s(%s)" name sev)
                 alerts));
      match l.Proto.connections with
      | [] -> ()
      | conns ->
          Printf.printf "connections:%s\n"
            (String.concat ""
               (List.map
                  (fun (c : Proto.conn_stats) ->
                    Printf.sprintf " [%d] %dreq/%dspan/%.1fms" c.Proto.conn_id
                      c.Proto.conn_requests c.Proto.conn_spans
                      (c.Proto.conn_seconds *. 1e3))
                  conns))

let query_stats_cmd =
  let run address =
    match query_call address Proto.Stats with
    | Proto.Stats_ok s -> print_stats s
    | _ -> exit_err "server sent a mismatched response"
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print the server's request and cache counters (plus live \
             latency/GC/alert state when the server runs with observability \
             on)")
    Term.(const run $ address_arg)

let query_trace_cmd =
  let run address out otlp =
    let request = if otlp then Proto.Otlp_dump else Proto.Trace_dump in
    let label = if otlp then "OTLP JSON" else "Chrome trace JSON" in
    let doc =
      match query_call address request with
      | Proto.Trace_ok { chrome } -> chrome
      | Proto.Otlp_ok { otlp } -> otlp
      | _ -> exit_err "server sent a mismatched response"
    in
    match out with
    | None -> print_string doc
    | Some path ->
        write_file path doc;
        Printf.printf "wrote %s to %s\n" label path
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the trace document here instead of stdout.")
  in
  let otlp =
    Arg.(value & flag & info [ "otlp" ]
           ~doc:"Dump one OTLP/JSON document (resource, scope, spans and a \
                 metrics snapshot with exemplars) instead of Chrome \
                 trace-event JSON.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Dump the server's slowest sampled requests as Chrome trace-event \
             JSON (open in Perfetto): frame read, parse, cache lookup, \
             per-shard plan, replay, render and write spans per request")
    Term.(const run $ address_arg $ out $ otlp)

let query_cmd =
  Cmd.group
    (Cmd.info "query"
       ~doc:"Send planning requests to a running `adept serve` instance")
    [ query_plan_cmd; query_replan_cmd; query_observe_cmd; query_stats_cmd;
      query_trace_cmd ]

(* ---------- obs ---------- *)

let obs_replay_cmd =
  let run journal chrome_out alerts_out access_out at_dump until =
    let cut =
      match (at_dump, until) with
      | Some _, Some _ -> exit_err "--at-dump and --until are exclusive"
      | Some n, None -> Adept_obs.Replay.At_dump n
      | None, Some t -> Adept_obs.Replay.Until t
      | None, None -> Adept_obs.Replay.To_end
    in
    let reader =
      match Adept_obs.Journal.open_ journal with
      | Ok r -> r
      | Error e -> exit_err ("cannot open journal: " ^ e)
    in
    let records = Adept_obs.Journal.records reader in
    let stats = Adept_obs.Journal.stats reader in
    let t = Adept_obs.Replay.run ~cut records in
    let write path what content =
      write_file path content;
      Printf.printf "wrote %s to %s\n" what path
    in
    Option.iter
      (fun p -> write p "replayed Chrome trace JSON" t.Adept_obs.Replay.rp_chrome)
      chrome_out;
    Option.iter
      (fun p -> write p "replayed alert timeline" t.Adept_obs.Replay.rp_alerts)
      alerts_out;
    Option.iter
      (fun p -> write p "replayed access log" t.Adept_obs.Replay.rp_access)
      access_out;
    print_string (Adept_obs.Replay.summary ~stats t)
  in
  let journal =
    Arg.(required & opt (some string) None & info [ "journal" ] ~docv:"DIR"
           ~doc:"Flight-recorder directory (or a single segment file) written \
                 by `adept serve --journal`.")
  in
  let chrome_out =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Write the window's Chrome trace-event JSON here — \
                 byte-identical to what a live `adept query trace` returned \
                 at the same cut.")
  in
  let alerts_out =
    Arg.(value & opt (some string) None & info [ "alerts" ] ~docv:"FILE"
           ~doc:"Write the window's alert-transition timeline (JSONL) here.")
  in
  let access_out =
    Arg.(value & opt (some string) None & info [ "access" ] ~docv:"FILE"
           ~doc:"Write the window's access-log lines (byte-verbatim) here.")
  in
  let at_dump =
    Arg.(value & opt (some int) None & info [ "at-dump" ] ~docv:"N"
           ~doc:"Cut the replay at the Nth (1-based) live trace dump; 0 means \
                 the last one.  Reproduces that dump's bytes exactly.")
  in
  let until =
    Arg.(value & opt (some float) None & info [ "until" ] ~docv:"TIME"
           ~doc:"Replay records with timestamp <= TIME (the clock the server \
                 ran on, as recorded).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Rebuild a past window's observability exports from a flight \
             recorder: Chrome trace, alert timeline and access log — \
             bit-identical to what the live server exported — plus an `adept \
             top`-style summary of the window")
    Term.(const run $ journal $ chrome_out $ alerts_out $ access_out $ at_dump
          $ until)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Retrospective observability: query flight-recorder journals \
             written by `adept serve --journal`")
    [ obs_replay_cmd ]

(* ---------- top ---------- *)

let top_cmd =
  let run address interval count once =
    let c =
      match Query.connect_retry (parse_address address) with
      | Error e -> exit_err ("cannot connect: " ^ e)
      | Ok c -> c
    in
    let total (s : Proto.server_stats) =
      s.Proto.plan_requests + s.Proto.replan_requests
      + s.Proto.observe_requests + s.Proto.stats_requests
    in
    let fetch () =
      match Query.call c Proto.Stats with
      | Ok (Proto.Stats_ok s) -> s
      | Ok (Proto.Error kind) ->
          Query.close c;
          exit_err (snd (Proto.error_kind_fields kind))
      | Ok _ -> Query.close c; exit_err "server sent a mismatched response"
      | Error e -> Query.close c; exit_err e
    in
    let frames = if once then 1 else count in
    let rec loop i prev =
      let s = fetch () in
      let at = Unix.gettimeofday () in
      (* QPS from the counter delta between successive polls — the
         server does not need a rate endpoint. *)
      let qps =
        match prev with
        | Some (t0, n0) when at > t0 ->
            float_of_int (total s - n0) /. (at -. t0)
        | _ -> 0.0
      in
      if not once then print_string "\027[2J\027[H";
      Printf.printf "adept top — %s\n\n" address;
      Printf.printf "requests: %d (%.1f qps)  errors: %d  coalesced: %d\n"
        (total s) qps s.Proto.errors s.Proto.coalesced;
      (match s.Proto.live with
      | None ->
          print_string
            "live observability is off on this server \
             (start `adept serve` with --live)\n"
      | Some l ->
          Printf.printf "uptime: %.1fs  traces sampled: %d\n"
            l.Proto.uptime_seconds l.Proto.traces_sampled;
          Printf.printf "latency: p50=%.3fms p99=%.3fms  gc pause p99: %.3fms\n"
            (l.Proto.latency_p50 *. 1e3) (l.Proto.latency_p99 *. 1e3)
            (l.Proto.gc_pause_p99 *. 1e3);
          Printf.printf "cache: %.1f%% hit (hits=%d misses=%d evictions=%d)\n"
            (l.Proto.cache_hit_ratio *. 100.0)
            s.Proto.cache_hits s.Proto.cache_misses s.Proto.cache_evictions;
          Printf.printf "domains:%s\n"
            (match l.Proto.domain_busy with
            | [] -> " (no scrape yet)"
            | busy ->
                String.concat ""
                  (List.mapi
                     (fun i r -> Printf.sprintf " [%d] %.0f%%" i (r *. 100.0))
                     busy));
          Printf.printf "alerts:%s\n"
            (match l.Proto.firing_alerts with
            | [] -> " none firing"
            | alerts ->
                String.concat ""
                  (List.map
                     (fun (name, sev) -> Printf.sprintf " %s(%s)" name sev)
                     alerts)));
      flush stdout;
      if frames = 0 || i < frames then begin
        Unix.sleepf interval;
        loop (i + 1) (Some (at, total s))
      end
    in
    loop 1 None;
    Query.close c
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval"; "i" ] ~docv:"SECONDS"
           ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(value & opt int 0 & info [ "count"; "n" ] ~docv:"N"
           ~doc:"Stop after N frames (0 = run until interrupted).")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Print one snapshot without clearing the screen and exit \
                 (scripting/CI).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal view of a running `adept serve`: QPS, latency \
             quantiles, cache hit ratio, GC pauses, per-domain utilization \
             and firing alerts, refreshed in place")
    Term.(const run $ address_arg $ interval $ count $ once)

let main =
  let doc = "Automatic middleware deployment planning (ADePT)" in
  Cmd.group
    (Cmd.info "adept" ~version:"1.0.0" ~doc)
    [
      platform_cmd; plan_cmd; eval_cmd; simulate_cmd; observe_cmd; trace_cmd;
      monitor_cmd; replan_cmd; rollout_cmd; compare_cmd; improve_cmd;
      latency_cmd; experiment_cmd; bench_node_cmd; serve_cmd; query_cmd;
      top_cmd; obs_cmd;
    ]

let () = exit (Cmd.eval main)
