(* Benchmark harness.

   Default mode regenerates every table and figure of the paper's
   evaluation (plus the extension studies) at full fidelity and prints
   them as text tables — the reproduction artefact recorded in
   EXPERIMENTS.md.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe fig6 table4     # a subset
     dune exec bench/main.exe micro           # Bechamel microbenches
     dune exec bench/main.exe all micro       # both

   The Bechamel suite has one Test.make per paper artefact, timing that
   artefact's deterministic planning/model kernel (simulation-driven
   measurements live in the default mode; iterating them under Bechamel
   would take hours). *)

module Common = Adept_experiments.Common
module Registry = Adept_experiments.Registry
module Demand = Adept_model.Demand
module Sproto = Adept_serve.Protocol
module Scache = Adept_serve.Cache
module Srender = Adept_serve.Render
module Sprof = Adept_serve.Prof

let params = Adept_model.Params.diet_lyon

let dgemm n = Adept_workload.Dgemm.(mflops (make n))

(* ---------- paper artefact regeneration ---------- *)

let run_experiments ids =
  let ctx = Common.default_context in
  let selected =
    match ids with
    | [] -> Registry.all
    | ids ->
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None ->
                prerr_endline ("unknown experiment id: " ^ id);
                exit 1)
          ids
  in
  List.iter
    (fun (e : Registry.experiment) ->
      let t0 = Unix.gettimeofday () in
      let report = e.Registry.run ctx in
      print_string (Common.render report);
      Printf.printf "(regenerated in %.1fs)\n\n%!" (Unix.gettimeofday () -. t0))
    selected

(* ---------- Bechamel microbenches: one per table/figure ---------- *)

let lyon n = Adept_platform.Generator.grid5000_lyon ~n ()

let orsay seed n =
  let rng = Adept_util.Rng.create seed in
  Adept_platform.Generator.grid5000_orsay ~rng ~n ()

let bench_table3 =
  (* Table 3's kernel: the Wrep linear fit over star-deployment samples. *)
  let platform = lyon 9 in
  Bechamel.Test.make ~name:"table3/wrep-fit"
    (Bechamel.Staged.stage (fun () ->
         let samples =
           Adept_calibration.Fit.star_reply_samples ~params ~platform
             ~degrees:[ 1; 2; 4; 8 ] ~requests:5 ~wapp:(dgemm 100)
         in
         match Adept_calibration.Fit.fit_wrep ~power:730.0 samples with
         | Ok fit -> ignore fit.Adept_calibration.Fit.wsel
         | Error e -> failwith e))

let bench_fig2_3 =
  (* Figs. 2-3 kernel: Eq. 16 prediction for the two star deployments. *)
  let platform = lyon 3 in
  let nodes = Adept_platform.Platform.nodes platform in
  let star1 = Adept_hierarchy.Tree.star (List.hd nodes) [ List.nth nodes 1 ] in
  let star2 = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  Bechamel.Test.make ~name:"fig2-3/predict"
    (Bechamel.Staged.stage (fun () ->
         ignore (Adept.Evaluate.rho_on params ~platform ~wapp:(dgemm 10) star1);
         ignore (Adept.Evaluate.rho_on params ~platform ~wapp:(dgemm 10) star2)))

let bench_fig4_5 =
  (* Figs. 4-5 kernel: one simulated saturation point of the 2-server star. *)
  let platform = lyon 3 in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let scenario =
    Adept_sim.Scenario.make ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  Bechamel.Test.make ~name:"fig4-5/simulate-point"
    (Bechamel.Staged.stage (fun () ->
         ignore (Adept_sim.Scenario.run_fixed scenario ~clients:10 ~warmup:0.5 ~duration:1.0)))

let bench_table4 =
  (* Table 4 kernel: heuristic + homogeneous degree search on 45 nodes. *)
  let platform = lyon 45 in
  Bechamel.Test.make ~name:"table4/plan-45-nodes"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept.Heuristic.plan params ~platform ~wapp:(dgemm 310)
              ~demand:Demand.unbounded);
         ignore
           (Adept.Homogeneous.plan params ~platform ~wapp:(dgemm 310)
              ~demand:Demand.unbounded)))

let bench_fig6 =
  (* Fig. 6 kernel: the heuristic on the 200-node heterogeneous platform. *)
  let platform = orsay 42 200 in
  Bechamel.Test.make ~name:"fig6/plan-200-nodes"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept.Heuristic.plan params ~platform ~wapp:(dgemm 310)
              ~demand:Demand.unbounded)))

let bench_fig7 =
  (* Fig. 7 kernel: planning the service-limited regime on 200 nodes. *)
  let platform = orsay 42 200 in
  Bechamel.Test.make ~name:"fig7/plan-200-nodes"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept.Heuristic.plan params ~platform ~wapp:(dgemm 1000)
              ~demand:Demand.unbounded)))

let bench_plan_2000 =
  (* scalability of the planner well beyond the paper's 200 nodes *)
  let platform = orsay 1 2000 in
  Bechamel.Test.make ~name:"scale/plan-2000-nodes"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept.Heuristic.plan params ~platform ~wapp:(dgemm 310)
              ~demand:Demand.unbounded)))

let bench_plan_100k =
  (* the pooled planner's headline: Algorithm 1 on 100 000 nodes.  The
     node pool's prefix sums and capacity classes keep each bisection
     probe near-linear, so the whole plan lands in well under a second —
     the pre-pool implementation was quadratic in the candidate scans and
     unusable at this scale. *)
  let platform = lazy (orsay 1 100_000) in
  Bechamel.Test.make ~name:"scale/plan-100k-nodes"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept.Heuristic.plan params ~platform:(Lazy.force platform)
              ~wapp:(dgemm 310) ~demand:Demand.unbounded)))

let bench_plan_4000_loaded =
  (* The served miss path at the e2e [large] workload's biggest size: the
     platform the server generates for a heterogeneous synthetic spec
     (730 MFlop/s nodes under four background-load levels, 1000 Mbit/s)
     planned at DGEMM 310 through [Planner.run], which is what the
     server runs. *)
  let platform =
    lazy
      (match
         Srender.platform_of_spec
           (Sproto.Synthetic
              { nodes = 4000; power = 730.0; bandwidth = 1000.0; heterogeneous = true;
                seed = 1 })
       with
      | Ok p -> p
      | Error e -> failwith e)
  in
  Bechamel.Test.make ~name:"scale/plan-4000-nodes-loaded"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept.Planner.run Adept.Planner.Heuristic params
              ~platform:(Lazy.force platform) ~wapp:(dgemm 310)
              ~demand:Demand.unbounded)))

(* Twin pair: patching a 200-node hierarchy around a dead server versus
   replanning it from scratch — the wall-clock gap the controller's
   incremental-first policy banks on every enactment. *)
let bench_replan_pair =
  let platform = orsay 42 200 in
  let wapp = dgemm 310 in
  let previous =
    match
      Adept.Planner.run Adept.Planner.Heuristic params ~platform ~wapp
        ~demand:Demand.unbounded
    with
    | Ok p -> p.Adept.Planner.tree
    | Error e -> failwith (Adept.Error.to_string e)
  in
  let failed =
    let servers = Adept_hierarchy.Tree.servers previous in
    [ Adept_platform.Node.id (List.nth servers (List.length servers - 1)) ]
  in
  ( Bechamel.Test.make ~name:"replan/incremental-200-nodes"
      (Bechamel.Staged.stage (fun () ->
           match
             Adept.Planner.replan_incremental Adept.Planner.Heuristic params
               ~platform ~wapp ~demand:Demand.unbounded ~failed ~previous ()
           with
           | Ok (_, Adept.Planner.Incremental) -> ()
           | Ok (_, Adept.Planner.Full reason) -> failwith ("fell back: " ^ reason)
           | Error e -> failwith (Adept.Error.to_string e))),
    Bechamel.Test.make ~name:"replan/full-200-nodes"
      (Bechamel.Staged.stage (fun () ->
           match
             Adept.Planner.replan Adept.Planner.Heuristic params ~platform ~wapp
               ~demand:Demand.unbounded ~failed ~reference:previous ()
           with
           | Ok _ -> ()
           | Error e -> failwith (Adept.Error.to_string e))) )

let bench_replan_incremental = fst bench_replan_pair
let bench_replan_full = snd bench_replan_pair

let bench_fault_sweep =
  (* fault-sweep kernel: one simulated point with an active crash/recovery
     schedule — times the overhead of the supervised (timeout/retry)
     request path against bench_fig4_5's fault-free twin. *)
  let platform = lyon 3 in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let faults =
    Adept_sim.Faults.make_exn ()
    |> Adept_sim.Faults.seeded_crashes
         ~rng:(Adept_util.Rng.create 11)
         ~nodes:[ 1; 2 ] ~rate:0.5 ~mttr:0.3 ~horizon:1.5
  in
  let scenario =
    Adept_sim.Scenario.make ~faults ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  Bechamel.Test.make ~name:"fault-sweep/simulate-point"
    (Bechamel.Staged.stage (fun () ->
         ignore (Adept_sim.Scenario.run_fixed scenario ~clients:10 ~warmup:0.5 ~duration:1.0)))

let bench_self_heal =
  (* self-heal kernel: the fault-sweep point with the hysteresis controller
     sampling on top — times the supervision loop plus at most one online
     redeployment against bench_fault_sweep's controller-free twin. *)
  let platform = lyon 4 in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let faults =
    Adept_sim.Faults.make_exn ()
    |> Adept_sim.Faults.crash ~node:1 ~at:0.4
  in
  let controller =
    match
      Adept_sim.Controller.config ~strategy:Adept.Planner.Star ~sample_period:0.1
        ~window:0.5 ~threshold:0.6 ~hold_time:0.2 ~cooldown:0.5 ~min_gain:0.0
        ~max_replans:1 ~restart_latency:0.05 Adept_sim.Controller.Hysteresis
    with
    | Ok cfg -> cfg
    | Error e -> failwith (Adept.Error.to_string e)
  in
  let scenario =
    Adept_sim.Scenario.make ~faults ~controller ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  Bechamel.Test.make ~name:"self-heal/simulate-point"
    (Bechamel.Staged.stage (fun () ->
         ignore (Adept_sim.Scenario.run_fixed scenario ~clients:10 ~warmup:0.5 ~duration:1.0)))

let bench_rollout =
  (* rollout kernel: bench_self_heal's point with the replacement staged
     through a canary generation instead of swapped directly — times the
     split-routing bake window plus the promote migration.  No monitor is
     attached, so no watched alert can fire and the canary always promotes
     at the end of its bake; the kernel measures rollout machinery, not
     alert evaluation (bench_scrape covers that). *)
  let platform = lyon 4 in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let faults =
    Adept_sim.Faults.make_exn () |> Adept_sim.Faults.crash ~node:1 ~at:0.4
  in
  let rollout =
    match
      Adept_sim.Rollout.config ~canary_fraction:0.25 ~bake_window:0.3
        Adept_sim.Rollout.Canary
    with
    | Ok cfg -> cfg
    | Error e -> failwith (Adept.Error.to_string e)
  in
  let controller =
    match
      Adept_sim.Controller.config ~strategy:Adept.Planner.Star
        ~sample_period:0.1 ~window:0.5 ~threshold:0.6 ~hold_time:0.2
        ~cooldown:0.5 ~min_gain:0.0 ~max_replans:1 ~restart_latency:0.05
        ~rollout Adept_sim.Controller.Hysteresis
    with
    | Ok cfg -> cfg
    | Error e -> failwith (Adept.Error.to_string e)
  in
  let scenario =
    Adept_sim.Scenario.make ~faults ~controller ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  Bechamel.Test.make ~name:"rollout/simulate-point"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Adept_sim.Scenario.run_fixed scenario ~clients:10 ~warmup:0.5
              ~duration:1.0)))

let bench_traced =
  (* fig4-5's point with full observability attached — metrics registry
     plus a rate-1.0 request-trace store — so the bounded overhead of
     per-request causal tracing is visible against its untraced twin. *)
  let platform = lyon 3 in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree = Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let scenario =
    Adept_sim.Scenario.make ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  Bechamel.Test.make ~name:"obs/simulate-point-traced"
    (Bechamel.Staged.stage (fun () ->
         let registry = Adept_obs.Registry.create () in
         let rtrace = Adept_obs.Request_trace.create () in
         ignore
           (Adept_sim.Scenario.run_fixed ~registry ~rtrace scenario ~clients:10
              ~warmup:0.5 ~duration:1.0)))

let bench_scrape =
  (* the monitor's per-tick cost at dashboard scale: one scrape of a
     registry holding ~1k series into a time-series store watching 16 of
     them — what `adept monitor --scrape-interval` pays 4×/simulated
     second.  Setup (registry population) is outside the staged thunk. *)
  let registry = Adept_obs.Registry.create () in
  for shard = 0 to 999 do
    let g =
      Adept_obs.Registry.gauge registry
        ~labels:(Adept_obs.Label.v [ ("shard", string_of_int shard) ])
        "adept_bench_gauge"
    in
    Adept_obs.Gauge.set g (float_of_int shard)
  done;
  let selectors =
    List.init 16 (fun i ->
        Adept_obs.Rule.selector
          ~labels:(Adept_obs.Label.v [ ("shard", string_of_int (i * 61)) ])
          "adept_bench_gauge")
  in
  let store = Adept_obs.Timeseries.create ~retention:10.0 selectors in
  let now = ref 0.0 in
  Bechamel.Test.make ~name:"obs/scrape-1k-series"
    (Bechamel.Staged.stage (fun () ->
         now := !now +. 0.25;
         Adept_obs.Timeseries.scrape store ~registry ~now:!now))

(* The ring-buffer payoff behind Run_stats.completions_in: the loop a
   controller run performs — a steady completion stream with a sliding
   window query every 100 completions.  The naive twin is the pre-ring
   implementation (every completion kept forever, every query a full
   scan), quadratic in run length where the ring stays flat. *)
let window_completions = 20_000
let window_span = 5.0

let bench_window_ring =
  Bechamel.Test.make ~name:"substrate/run-stats-window-ring"
    (Bechamel.Staged.stage (fun () ->
         let stats =
           Adept_sim.Run_stats.create ~retention:(window_span +. 1.0) ()
         in
         let acc = ref 0 in
         for i = 1 to window_completions do
           let time = float_of_int i *. 0.01 in
           Adept_sim.Run_stats.record_issue stats ~time;
           Adept_sim.Run_stats.record_completion stats ~issued_at:time ~time
             ~server:0;
           if i mod 100 = 0 then
             acc :=
               !acc
               + Adept_sim.Run_stats.completions_in stats
                   ~t0:(time -. window_span) ~t1:time
         done;
         ignore !acc))

let bench_window_naive =
  Bechamel.Test.make ~name:"substrate/run-stats-window-naive"
    (Bechamel.Staged.stage (fun () ->
         let times = ref [] in
         let acc = ref 0 in
         for i = 1 to window_completions do
           let time = float_of_int i *. 0.01 in
           times := time :: !times;
           if i mod 100 = 0 then
             acc :=
               !acc
               + List.length
                   (List.filter
                      (fun t -> time -. window_span <= t && t < time)
                      !times)
         done;
         ignore !acc))

let bench_event_queue =
  Bechamel.Test.make ~name:"substrate/event-queue-10k"
    (Bechamel.Staged.stage (fun () ->
         let q = Adept_sim.Event_queue.create () in
         let rng = Adept_util.Rng.create 7 in
         for _ = 1 to 10_000 do
           Adept_sim.Event_queue.add q ~time:(Adept_util.Rng.float rng 100.0) ()
         done;
         let rec drain () =
           match Adept_sim.Event_queue.pop_min q with
           | Some _ -> drain ()
           | None -> ()
         in
         drain ()))

let bench_xml =
  let platform = orsay 42 100 in
  let tree =
    match
      Adept.Heuristic.plan_tree params ~platform ~wapp:(dgemm 310) ~demand:Demand.unbounded
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  Bechamel.Test.make ~name:"substrate/xml-roundtrip-100-nodes"
    (Bechamel.Staged.stage (fun () ->
         match Adept_hierarchy.Xml.of_string (Adept_hierarchy.Xml.to_string tree) with
         | Ok _ -> ()
         | Error e -> failwith e))

(* ---------- serve micros ---------- *)

(* The plan request the serve micros share: the CLI's default synthetic
   platform. *)
let serve_spec =
  Sproto.Synthetic
    { nodes = 50; power = 730.0; bandwidth = 1000.0; heterogeneous = false; seed = 42 }

let serve_plan_params =
  {
    Sproto.spec = serve_spec;
    dgemm = 310;
    demand = None;
    strategy = "heuristic";
    use_cache = true;
  }

let bench_serve_plan_cold =
  (* a cache-missing plan request with the socket excluded: platform
     build + Algorithm 1 + CLI-identical rendering *)
  Bechamel.Test.make ~name:"serve/plan-cold"
    (Bechamel.Staged.stage (fun () ->
         match Srender.plan serve_plan_params with
         | Ok (_text, _rho, _nodes_used) -> ()
         | Error e -> failwith e))

let bench_serve_plan_cached =
  (* the same request answered from the plan-fragment cache: lookup plus
     reply encoding — the fast path a warm server serves at rate *)
  let digest = Sproto.spec_digest serve_spec in
  let wapp = dgemm 310 in
  let cache = Scache.create () in
  let () =
    match Srender.plan serve_plan_params with
    | Ok (text, rho, nodes_used) ->
        Scache.add cache ~digest ~strategy:"heuristic" ~wapp ~demand:None
          { Scache.text; rho; nodes_used }
    | Error e -> failwith e
  in
  Bechamel.Test.make ~name:"serve/plan-cached"
    (Bechamel.Staged.stage (fun () ->
         match Scache.find cache ~digest ~strategy:"heuristic" ~wapp ~demand:None with
         | Some e ->
             ignore
               (Sproto.encode_reply
                  {
                    Sproto.reply_id = 1;
                    response =
                      Sproto.Plan_ok
                        {
                          text = e.Scache.text;
                          rho = e.Scache.rho;
                          nodes_used = e.Scache.nodes_used;
                          cached = true;
                        };
                  })
         | None -> failwith "serve/plan-cached: unexpected cache miss"))

(* The cold plan with the full tracing tax a sampled request pays on
   the serving path: worker-side stage samples (mutex + raw clock
   reads), span grafting into the trace store, and the finish
   accounting.  Its distance from serve/plan-cold IS the observability
   overhead — gated below. *)
let traced_plan_store =
  lazy (Adept_obs.Request_trace.create ~sample_rate:1.0 ~max_traces:8 ())

(* The worker's stage samples as a span chain, as the server grafts them. *)
let add_stage_spans traces h prof =
  let module Rt = Adept_obs.Request_trace in
  ignore
    (List.fold_left
       (fun parent (s : Sprof.sample) ->
         let kind =
           Rt.Stage
             (match s.Sprof.ps_stage with
             | "replay" -> Rt.Replay
             | _ -> Rt.Render_reply)
         in
         Rt.add_span traces h ~parent ~kind ~node:(-1) ~start:s.Sprof.ps_start
           ~stop:s.Sprof.ps_stop)
       (-1) (Sprof.samples prof))

let run_plan_traced () =
  let module Rt = Adept_obs.Request_trace in
  let traces = Lazy.force traced_plan_store in
  let now = Unix.gettimeofday in
  let t0 = now () in
  match Rt.begin_with_id traces ~id:1 ~now:t0 with
  | None -> failwith "serve/plan-traced: rate-1.0 request not sampled"
  | Some h ->
      let prof = Sprof.create ~now in
      (match Srender.plan ~prof serve_plan_params with
      | Ok (_text, _rho, _nodes_used) -> ()
      | Error e -> failwith e);
      add_stage_spans traces h prof;
      Rt.finish traces h ~now:(now ())

let bench_serve_plan_traced =
  Bechamel.Test.make ~name:"serve/plan-traced"
    (Bechamel.Staged.stage run_plan_traced)

(* The traced plan plus the flight recorder's per-request tax: a
   Begin_request and a Finish (with the full span array) appended and
   flushed to the journal.  The OTLP push rides the scrape cadence, not
   the request path, so it is deliberately absent here. *)
let bench_journal_dir =
  lazy
    (let path = Filename.temp_file "adept-bench-journal" "" in
     Sys.remove path;
     Unix.mkdir path 0o755;
     path)

let recorded_plan_journal =
  lazy
    (match Adept_obs.Journal.create (Lazy.force bench_journal_dir) with
    | Ok w -> w
    | Error e -> failwith ("serve/plan-recorded: " ^ e))

let run_plan_recorded () =
  let module Rt = Adept_obs.Request_trace in
  let module Journal = Adept_obs.Journal in
  let traces = Lazy.force traced_plan_store in
  let w = Lazy.force recorded_plan_journal in
  let now = Unix.gettimeofday in
  let t0 = now () in
  match Rt.begin_with_id traces ~id:1 ~now:t0 with
  | None -> failwith "serve/plan-recorded: rate-1.0 request not sampled"
  | Some h ->
      ignore
        (Journal.append w
           (Journal.Begin_request { b_at = t0; b_trace = 1; b_sampled = true }));
      let prof = Sprof.create ~now in
      (match Srender.plan ~prof serve_plan_params with
      | Ok (_text, _rho, _nodes_used) -> ()
      | Error e -> failwith e);
      add_stage_spans traces h prof;
      let t1 = now () in
      let tr = Rt.finish_trace traces h ~now:t1 in
      ignore
        (Journal.append w
           (Journal.Finish
              {
                f_at = t1;
                f_trace = 1;
                f_issued = t0;
                f_conn = 1;
                f_spans =
                  Option.map (fun t -> t.Adept_obs.Request_trace.tr_spans) tr;
                f_dropped_spans = Rt.dropped_spans traces;
              }))

let bench_serve_plan_recorded =
  Bechamel.Test.make ~name:"serve/plan-recorded"
    (Bechamel.Staged.stage run_plan_recorded)

(* Raw recorder throughput: 1000 spans' worth of Finish records (125
   finishes of 8 spans each) appended and flushed. *)
let bench_journal_append =
  let module Journal = Adept_obs.Journal in
  let spans =
    Array.init 8 (fun i ->
        {
          Adept_obs.Request_trace.sp_id = i;
          sp_parent = i - 1;
          sp_kind = Adept_obs.Request_trace.Stage Adept_obs.Request_trace.Parse;
          sp_node = -1;
          sp_start = float_of_int i;
          sp_stop = float_of_int i +. 0.5;
        })
  in
  Bechamel.Test.make ~name:"journal/append-1k-spans"
    (Bechamel.Staged.stage (fun () ->
         let w = Lazy.force recorded_plan_journal in
         for i = 1 to 125 do
           ignore
             (Journal.append w
                (Journal.Finish
                   {
                     f_at = float_of_int i;
                     f_trace = i;
                     f_issued = float_of_int i -. 0.5;
                     f_conn = 1;
                     f_spans = Some spans;
                     f_dropped_spans = 0;
                   }))
         done))

(* The wall-clock overhead gate on the hard invariant's cheap half:
   tracing may not tax the request path.  Interleaved p50s (drift hits
   both arms equally) of the traced and untraced cold plan; traced must
   stay within 5%. *)
let check_tracing_overhead () =
  let iters = 30 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let untraced () =
    match Srender.plan serve_plan_params with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  (* warm both paths before measuring *)
  untraced ();
  run_plan_traced ();
  let a = Array.make iters 0.0 and b = Array.make iters 0.0 in
  for i = 0 to iters - 1 do
    a.(i) <- time untraced;
    b.(i) <- time run_plan_traced
  done;
  Array.sort compare a;
  Array.sort compare b;
  let p50 x = x.(Array.length x / 2) in
  let ratio = p50 b /. p50 a in
  Printf.printf
    "tracing overhead: plan-cold p50 %.0f ns untraced, %.0f ns traced (%.3fx, gate 1.05x)\n"
    (p50 a *. 1e9) (p50 b *. 1e9) ratio;
  if ratio > 1.05 then begin
    print_endline "bench: tracing overhead beyond the 1.05x gate";
    exit 1
  end

(* The same interleaved-p50 gate with the flight recorder on: tracing
   plus two flushed journal appends per request must stay within 10%
   of the untraced cold plan. *)
let check_recorded_overhead () =
  let iters = 30 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let untraced () =
    match Srender.plan serve_plan_params with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  untraced ();
  run_plan_recorded ();
  let a = Array.make iters 0.0 and b = Array.make iters 0.0 in
  for i = 0 to iters - 1 do
    a.(i) <- time untraced;
    b.(i) <- time run_plan_recorded
  done;
  Array.sort compare a;
  Array.sort compare b;
  let p50 x = x.(Array.length x / 2) in
  let ratio = p50 b /. p50 a in
  Printf.printf
    "recorder overhead: plan-cold p50 %.0f ns untraced, %.0f ns recorded (%.3fx, gate 1.10x)\n"
    (p50 a *. 1e9) (p50 b *. 1e9) ratio;
  if ratio > 1.10 then begin
    print_endline "bench: flight-recorder overhead beyond the 1.10x gate";
    exit 1
  end

(* Reads only the format write_bench_json produces (one result object per
   line) — good enough without a JSON dependency. *)
let read_bench_json path =
  let ic =
    try open_in path
    with Sys_error e ->
      prerr_endline ("bench: cannot read baseline: " ^ e);
      exit 2
  in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       try
         Scanf.sscanf line "{%S: %S, %S: %f, %S: %d"
           (fun k1 name k2 mean k3 runs ->
             if k1 = "name" && k2 = "mean_ns" && k3 = "runs" then
               entries := (name, mean, runs) :: !entries)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Machine-readable snapshot of the micro results, for CI artifacts and
   cross-commit comparison.  MERGES: existing rows survive unless
   rewritten. *)
let write_bench_json path entries =
  let keep =
    if Sys.file_exists path then
      List.filter
        (fun (name, _, _) ->
          not (List.exists (fun (n, _, _) -> n = name) entries))
        (read_bench_json path)
    else []
  in
  let entries = List.sort compare (keep @ entries) in
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"adept-bench/v1\",\n  \"results\": [\n";
  let last = List.length entries - 1 in
  List.iteri
    (fun i (name, mean_ns, runs) ->
      Printf.fprintf oc "    {\"name\": %S, \"mean_ns\": %.1f, \"runs\": %d}%s\n"
        name mean_ns runs
        (if i = last then "" else ","))
    entries;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* The perf trajectory gate: fresh micro results against a committed
   snapshot.  Only benchmarks present in both are compared; a mean more
   than [tolerance] (relative) above the baseline is a regression and
   the process exits non-zero so CI actually enforces it. *)
let compare_against ~baseline_path ~baseline ~tolerance fresh =
  Printf.printf "\nregression guard vs %s (tolerance %.0f%%):\n" baseline_path
    (100.0 *. tolerance);
  let regressions = ref 0 in
  List.iter
    (fun (name, mean, _) ->
      match List.find_opt (fun (n, _, _) -> n = name) baseline with
      | None -> Printf.printf "  %-44s %12.0f ns/run      (new, no baseline)\n" name mean
      | Some (_, base_mean, _) ->
          let delta = 100.0 *. ((mean /. base_mean) -. 1.0) in
          let regressed = mean > base_mean *. (1.0 +. tolerance) in
          if regressed then incr regressions;
          Printf.printf "  %-44s %12.0f ns/run  %+7.1f%%  %s\n" name mean delta
            (if regressed then "REGRESSION" else "ok"))
    (List.sort compare fresh);
  if !regressions > 0 then begin
    Printf.printf "bench: %d benchmark(s) regressed beyond tolerance\n" !regressions;
    exit 1
  end
  else print_endline "bench: no regressions beyond tolerance"

let run_micro () =
  let open Bechamel in
  let benchmarks =
    Test.make_grouped ~name:"adept"
      [
        bench_table3; bench_fig2_3; bench_fig4_5; bench_table4; bench_fig6;
        bench_fig7; bench_fault_sweep; bench_self_heal; bench_rollout;
        bench_traced;
        bench_scrape; bench_plan_2000; bench_window_ring; bench_window_naive;
        bench_event_queue; bench_xml;
        bench_plan_100k; bench_plan_4000_loaded; bench_replan_incremental;
        bench_replan_full;
        bench_serve_plan_cold; bench_serve_plan_cached;
        bench_serve_plan_traced; bench_serve_plan_recorded;
        bench_journal_append;
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.5) ~kde:(Some 1000) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances benchmarks in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]) instance raw)
      instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]) instances results in
  (* plain-text report: nanoseconds per run for each benchmark *)
  print_endline "Bechamel microbenches (time per run):";
  let entries = ref [] in
  Hashtbl.iter
    (fun label by_bench ->
      if label = Measure.label Toolkit.Instance.monotonic_clock then
        Hashtbl.iter
          (fun name ols ->
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] ->
                Printf.printf "  %-40s %12.0f ns/run\n" name est;
                let runs =
                  match Hashtbl.find_opt raw name with
                  | Some (b : Benchmark.t) -> b.Benchmark.stats.Benchmark.samples
                  | None -> 0
                in
                entries := (name, est, runs) :: !entries
            | _ -> Printf.printf "  %-40s (no estimate)\n" name)
          by_bench)
    results;
  write_bench_json "BENCH_sim.json" !entries;
  !entries

let () =
  let rec parse args against tolerance rest =
    match args with
    | "--against" :: file :: tl -> parse tl (Some file) tolerance rest
    | "--against" :: [] ->
        prerr_endline "bench: --against needs a file argument";
        exit 2
    | "--tolerance" :: t :: tl -> (
        match float_of_string_opt t with
        | Some t when t >= 0.0 -> parse tl against t rest
        | _ ->
            prerr_endline "bench: --tolerance needs a non-negative number";
            exit 2)
    | "--tolerance" :: [] ->
        prerr_endline "bench: --tolerance needs a number";
        exit 2
    | a :: tl -> parse tl against tolerance (a :: rest)
    | [] -> (against, tolerance, List.rev rest)
  in
  let against, tolerance, args =
    parse (List.tl (Array.to_list Sys.argv)) None 0.25 []
  in
  let micro = List.mem "micro" args || against <> None in
  let ids = List.filter (fun a -> a <> "micro" && a <> "all") args in
  let run_all = args = [] || List.mem "all" args || (ids = [] && not micro) in
  if run_all then run_experiments []
  else if ids <> [] then run_experiments ids;
  if micro then begin
    (* Read the baseline before run_micro overwrites BENCH_sim.json —
       the CI invocation gates against the committed copy of the same
       file it regenerates. *)
    let baseline = Option.map (fun p -> (p, read_bench_json p)) against in
    let fresh = run_micro () in
    match baseline with
    | Some (baseline_path, baseline) ->
        compare_against ~baseline_path ~baseline ~tolerance fresh;
        check_tracing_overhead ();
        check_recorded_overhead ()
    | None -> ()
  end
