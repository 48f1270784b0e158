(* Tests for Adept_sim: event queue, engine, resources, network,
   middleware request flow, stats, scenarios. *)

module Event_queue = Adept_sim.Event_queue
module Engine = Adept_sim.Engine
module Resource = Adept_sim.Resource
module Network = Adept_sim.Network
module Trace = Adept_sim.Trace
module Middleware = Adept_sim.Middleware
module Faults = Adept_sim.Faults
module Run_stats = Adept_sim.Run_stats
module Scenario = Adept_sim.Scenario
module Params = Adept_model.Params
module Platform = Adept_platform.Platform
module Tree = Adept_hierarchy.Tree

let params = Params.diet_lyon

let check_close ?(eps = 1e-9) name expected got =
  Alcotest.(check (float (eps *. Float.max 1.0 (Float.abs expected)))) name expected got

(* ---------- Event_queue ---------- *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  let pop () = match Event_queue.pop_min q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ first; second; third ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1.0 "first";
  Event_queue.add q ~time:1.0 "second";
  Event_queue.add q ~time:1.0 "third";
  let pop () = match Event_queue.pop_min q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ]
    [ first; second; third ]

let test_queue_size_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Event_queue.add q ~time:0.0 ();
  Alcotest.(check int) "size 1" 1 (Event_queue.size q);
  ignore (Event_queue.pop_min q);
  Alcotest.(check (option (pair (float 0.0) unit))) "pop empty" None (Event_queue.pop_min q)

let test_queue_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: NaN time") (fun () ->
      Event_queue.add q ~time:Float.nan ())

let test_queue_stress_sorted () =
  let q = Event_queue.create () in
  let rng = Adept_util.Rng.create 99 in
  let times = Array.init 2000 (fun _ -> Adept_util.Rng.float rng 100.0) in
  Array.iter (fun t -> Event_queue.add q ~time:t ()) times;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop_min q with
    | Some (t, ()) ->
        out := t :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  let popped = Array.of_list (List.rev !out) in
  Array.sort Float.compare times;
  Alcotest.(check bool) "heap = sort" true (popped = times)

(* ---------- Engine ---------- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule_at e ~time:1.0 (fun () -> log := "a" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log);
  check_close "clock at last event" 2.0 (Engine.now e)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule_at e ~time:10.0 (fun () -> fired := true);
  let outcome = Engine.run ~until:5.0 e in
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check bool) "horizon outcome" true (outcome = Engine.Horizon_reached);
  check_close "clock at horizon" 5.0 (Engine.now e);
  Alcotest.(check int) "event still pending" 1 (Engine.pending e)

let test_engine_event_limit () =
  let e = Engine.create () in
  let rec reschedule () = Engine.schedule e ~delay:1.0 reschedule in
  reschedule ();
  let outcome = Engine.run ~max_events:100 e in
  Alcotest.(check bool) "limit outcome" true (outcome = Engine.Event_limit)

let test_engine_past_schedule () =
  let e = Engine.create () in
  Engine.schedule_at e ~time:5.0 (fun () ->
      Alcotest.(check bool) "past raises" true
        (match Engine.schedule_at e ~time:1.0 (fun () -> ()) with
        | exception Invalid_argument _ -> true
        | _ -> false));
  ignore (Engine.run e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let total = ref 0 in
  Engine.schedule_at e ~time:1.0 (fun () ->
      incr total;
      Engine.schedule e ~delay:0.5 (fun () -> incr total));
  ignore (Engine.run e);
  Alcotest.(check int) "both fired" 2 !total;
  check_close "clock" 1.5 (Engine.now e)

let test_engine_exhausted_advances_to_horizon () =
  let e = Engine.create () in
  let outcome = Engine.run ~until:3.0 e in
  Alcotest.(check bool) "exhausted" true (outcome = Engine.Exhausted);
  check_close "clock moved to horizon" 3.0 (Engine.now e)

(* ---------- Resource ---------- *)

let test_resource_serial_booking () =
  let r = Resource.create ~name:"x" ~power:100.0 in
  let f1 = Resource.book r ~now:0.0 ~duration:2.0 in
  check_close "finish" 2.0 f1;
  let f2 = Resource.book r ~now:1.0 ~duration:1.0 in
  check_close "queued behind" 3.0 f2;
  let f3 = Resource.book r ~now:10.0 ~duration:1.0 in
  check_close "idle gap start" 11.0 f3

let test_resource_backlog_busy () =
  let r = Resource.create ~name:"x" ~power:1.0 in
  ignore (Resource.book r ~now:0.0 ~duration:5.0);
  check_close "backlog" 3.0 (Resource.backlog r ~now:2.0);
  check_close "no backlog later" 0.0 (Resource.backlog r ~now:9.0);
  check_close "busy total" 5.0 (Resource.busy_seconds r);
  Alcotest.(check int) "bookings" 1 (Resource.bookings r)

let test_resource_charge () =
  let r = Resource.create ~name:"x" ~power:1.0 in
  Resource.charge r ~now:0.0 ~duration:2.0;
  check_close "charge extends free_at" 2.0 (Resource.free_at r);
  check_close "charge counts busy" 2.0 (Resource.busy_seconds r)

let test_resource_monotonic_now () =
  let r = Resource.create ~name:"x" ~power:1.0 in
  ignore (Resource.book r ~now:5.0 ~duration:1.0);
  Alcotest.(check bool) "backwards now rejected" true
    (match Resource.book r ~now:4.0 ~duration:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_resource_utilization () =
  let r = Resource.create ~name:"x" ~power:1.0 in
  ignore (Resource.book r ~now:0.0 ~duration:4.0);
  check_close "half busy" 0.5 (Resource.utilization r ~horizon:8.0)

let test_resource_validation () =
  Alcotest.(check bool) "zero power" true
    (match Resource.create ~name:"x" ~power:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let r = Resource.create ~name:"x" ~power:1.0 in
  Alcotest.(check bool) "negative duration" true
    (match Resource.book r ~now:0.0 ~duration:(-1.0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Network ---------- *)

let test_network_port_to_port () =
  let e = Engine.create () in
  let src = Resource.create ~name:"s" ~power:1.0 in
  let dst = Resource.create ~name:"d" ~power:1.0 in
  let delivered_at = ref Float.nan in
  Network.transfer e ~bandwidth:10.0 ~src:(Network.Port src) ~src_size:5.0
    ~dst:(Network.Port dst) ~dst_size:20.0
    ~on_delivered:(fun () -> delivered_at := Engine.now e)
    ();
  ignore (Engine.run e);
  (* send 0.5s, then receive 2.0s at the destination *)
  check_close "delivery time" 2.5 !delivered_at;
  check_close "src busy" 0.5 (Resource.busy_seconds src);
  check_close "dst busy" 2.0 (Resource.busy_seconds dst)

let test_network_latency () =
  let e = Engine.create () in
  let delivered_at = ref Float.nan in
  Network.transfer e ~bandwidth:10.0 ~latency:0.25 ~src:Network.Instant ~src_size:0.0
    ~dst:Network.Instant ~dst_size:0.0
    ~on_delivered:(fun () -> delivered_at := Engine.now e)
    ();
  ignore (Engine.run e);
  check_close "latency only" 0.25 !delivered_at

let test_network_lane_charges_but_does_not_delay () =
  let e = Engine.create () in
  let dst = Resource.create ~name:"d" ~power:1.0 in
  (* pre-load the destination with 10s of work *)
  ignore (Resource.book dst ~now:0.0 ~duration:10.0);
  let delivered_at = ref Float.nan in
  Network.transfer e ~bandwidth:1.0 ~src:Network.Instant ~src_size:0.0
    ~dst:(Network.Lane dst) ~dst_size:2.0
    ~on_delivered:(fun () -> delivered_at := Engine.now e)
    ();
  ignore (Engine.run e);
  check_close "delivered immediately" 0.0 !delivered_at;
  check_close "capacity still charged" 12.0 (Resource.busy_seconds dst)

let test_network_queueing_contention () =
  let e = Engine.create () in
  let src = Resource.create ~name:"s" ~power:1.0 in
  let deliveries = ref [] in
  for _ = 1 to 3 do
    Network.transfer e ~bandwidth:1.0 ~src:(Network.Port src) ~src_size:1.0
      ~dst:Network.Instant ~dst_size:0.0
      ~on_delivered:(fun () -> deliveries := Engine.now e :: !deliveries)
      ()
  done;
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "serialized sends" [ 1.0; 2.0; 3.0 ]
    (List.rev !deliveries)

let test_network_validation () =
  let e = Engine.create () in
  Alcotest.(check bool) "zero bandwidth" true
    (match
       Network.transfer e ~bandwidth:0.0 ~src:Network.Instant ~src_size:0.0
         ~dst:Network.Instant ~dst_size:0.0
         ~on_delivered:(fun () -> ())
         ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Trace ---------- *)

let test_trace_records () =
  let t = Trace.create () in
  Trace.record_message t ~kind:Trace.Sched_request ~role:Trace.Agent_end ~size:2.0;
  Trace.record_message t ~kind:Trace.Sched_request ~role:Trace.Agent_end ~size:4.0;
  Alcotest.(check int) "count" 2 (Trace.message_count t Trace.Sched_request Trace.Agent_end);
  Alcotest.(check (option (float 1e-9))) "mean" (Some 3.0)
    (Trace.mean_message_size t Trace.Sched_request Trace.Agent_end);
  Alcotest.(check (option (float 1e-9))) "other bucket empty" None
    (Trace.mean_message_size t Trace.Sched_reply Trace.Server_end);
  check_close "total" 6.0 (Trace.total_mbit t)

let test_trace_disabled () =
  let t = Trace.disabled in
  Trace.record_message t ~kind:Trace.Sched_request ~role:Trace.Agent_end ~size:2.0;
  Trace.record_agent_reply_compute t ~degree:3 ~seconds:1.0;
  Alcotest.(check int) "records nothing" 0
    (Trace.message_count t Trace.Sched_request Trace.Agent_end);
  Alcotest.(check int) "no samples" 0 (Array.length (Trace.reply_samples t));
  Alcotest.(check bool) "flagged disabled" false (Trace.is_enabled t)

let test_trace_samples () =
  let t = Trace.create () in
  Trace.record_agent_reply_compute t ~degree:2 ~seconds:0.5;
  Trace.record_agent_request_compute t ~seconds:0.1;
  Trace.record_server_prediction t ~seconds:0.2;
  Alcotest.(check int) "reply samples" 1 (Array.length (Trace.reply_samples t));
  Alcotest.(check (pair int (float 0.0))) "sample content" (2, 0.5)
    (Trace.reply_samples t).(0);
  Alcotest.(check int) "request computes" 1 (Array.length (Trace.agent_request_computes t));
  Alcotest.(check int) "predictions" 1 (Array.length (Trace.server_predictions t))

(* ---------- Middleware ---------- *)

let star_platform n_servers =
  Adept_platform.Generator.grid5000_lyon ~n:(n_servers + 1) ()

let star_tree platform =
  let nodes = Platform.nodes platform in
  Tree.star (List.hd nodes) (List.tl nodes)

let test_middleware_single_request_timing () =
  (* Hand-check the full scheduling+service path of one request through a
     1-agent 1-server star against the Eqs. 1-5 cost accounting. *)
  let platform = star_platform 1 in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let m = Middleware.deploy ~engine ~params ~platform tree in
  let wapp = 16.0 in
  let b = 100.0 and w = 730.0 in
  let done_at = ref Float.nan in
  Middleware.submit m ~wapp
    ~on_scheduled:(fun ~server ->
      Middleware.request_service m ~server ~wapp
        ~on_done:(fun () -> done_at := Engine.now engine)
        ())
    ();
  ignore (Engine.run engine);
  let sched =
    (params.Params.agent.sreq /. b) (* client -> root receive *)
    +. (params.Params.agent.wreq /. w) (* Wreq *)
    +. (params.Params.agent.sreq /. b) (* root -> server send *)
    +. (params.Params.server.wpre /. w) (* prediction (lane) *)
    +. (params.Params.server.srep /. b) (* server send (lane wire time) *)
    +. (params.Params.agent.srep /. b) (* root receive reply *)
    +. (Params.wrep params ~degree:1 /. w) (* Wrep(1) *)
    +. (params.Params.agent.srep /. b) (* root -> client send *)
  in
  let service =
    (params.Params.server.sreq /. b) +. (wapp /. w) +. (params.Params.server.srep /. b)
  in
  check_close ~eps:1e-9 "end-to-end latency" (sched +. service) !done_at

let test_middleware_selects_stronger_server () =
  (* heterogeneous star: the faster server should win the first request *)
  let nodes =
    [
      Adept_platform.Node.make ~id:0 ~name:"agent" ~power:730.0 ();
      Adept_platform.Node.make ~id:1 ~name:"slow" ~power:100.0 ();
      Adept_platform.Node.make ~id:2 ~name:"fast" ~power:1000.0 ();
    ]
  in
  let platform =
    Platform.create ~link:(Adept_platform.Link.homogeneous ~bandwidth:100.0 ()) nodes
  in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let m = Middleware.deploy ~engine ~params ~platform tree in
  let chosen = ref (-1) in
  Middleware.submit m ~wapp:16.0 ~on_scheduled:(fun ~server -> chosen := server) ();
  ignore (Engine.run engine);
  Alcotest.(check int) "fast server chosen" 2 !chosen

let test_middleware_round_robin () =
  let platform = star_platform 3 in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let m =
    Middleware.deploy ~selection:Middleware.Round_robin ~engine ~params ~platform tree
  in
  let chosen = ref [] in
  let rec submit k =
    if k > 0 then
      Middleware.submit m ~wapp:1.0
        ~on_scheduled:(fun ~server ->
          chosen := server :: !chosen;
          submit (k - 1))
        ()
  in
  submit 6;
  ignore (Engine.run engine);
  let counts = List.sort_uniq Int.compare !chosen in
  Alcotest.(check int) "all three servers used" 3 (List.length counts)

let test_middleware_two_level_flow () =
  (* root -> 2 agents -> 2 servers each; one request must reach all four
     servers for prediction and come back *)
  let powers = List.init 7 (fun _ -> 730.0) in
  let platform = Platform.of_powers ~link:(Adept_platform.Link.homogeneous ~bandwidth:100.0 ()) powers in
  let n i = Platform.node platform i in
  let tree =
    Tree.agent (n 0)
      [
        Tree.agent (n 1) [ Tree.server (n 3); Tree.server (n 4) ];
        Tree.agent (n 2) [ Tree.server (n 5); Tree.server (n 6) ];
      ]
  in
  let engine = Engine.create () in
  let trace = Trace.create () in
  let m = Middleware.deploy ~trace ~engine ~params ~platform tree in
  let completed = ref false in
  Middleware.submit m ~wapp:1.0
    ~on_scheduled:(fun ~server ->
      Alcotest.(check bool) "a server was chosen" true (server >= 3);
      Middleware.request_service m ~server ~wapp:1.0
        ~on_done:(fun () -> completed := true)
        ())
    ();
  ignore (Engine.run engine);
  Alcotest.(check bool) "completed" true !completed;
  Alcotest.(check int) "4 predictions" 4 (Array.length (Trace.server_predictions trace));
  (* root computes one Wrep(2), each mid agent one Wrep(2) *)
  Alcotest.(check int) "3 reply aggregations" 3 (Array.length (Trace.reply_samples trace))

let test_middleware_database_selection () =
  (* heterogeneous star under Database selection with fast reports: load
     still lands and the system completes requests *)
  let nodes =
    [
      Adept_platform.Node.make ~id:0 ~name:"agent" ~power:730.0 ();
      Adept_platform.Node.make ~id:1 ~name:"s1" ~power:500.0 ();
      Adept_platform.Node.make ~id:2 ~name:"s2" ~power:900.0 ();
    ]
  in
  let platform =
    Platform.create ~link:(Adept_platform.Link.homogeneous ~bandwidth:100.0 ()) nodes
  in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let m =
    Middleware.deploy ~selection:Middleware.Database ~monitoring_period:0.01 ~engine
      ~params ~platform tree
  in
  let completed = ref 0 in
  let rec loop k =
    if k > 0 then
      Middleware.submit m ~wapp:16.0
        ~on_scheduled:(fun ~server ->
          Middleware.request_service m ~server ~wapp:16.0
            ~on_done:(fun () ->
              incr completed;
              loop (k - 1))
            ())
        ()
  in
  loop 20;
  ignore (Engine.run ~until:30.0 engine);
  Alcotest.(check int) "all requests completed" 20 !completed

let test_middleware_database_requires_period () =
  let platform = star_platform 1 in
  let tree = star_tree platform in
  let engine = Engine.create () in
  Alcotest.(check bool) "missing period rejected" true
    (match
       Middleware.deploy ~selection:Middleware.Database ~engine ~params ~platform tree
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad period rejected" true
    (match
       Middleware.deploy ~monitoring_period:0.0 ~engine ~params ~platform tree
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_middleware_deploy_validates () =
  let platform = star_platform 1 in
  let bad = Tree.server (Platform.node platform 0) in
  let engine = Engine.create () in
  Alcotest.(check bool) "invalid tree rejected" true
    (match Middleware.deploy ~engine ~params ~platform bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_middleware_service_to_agent_rejected () =
  let platform = star_platform 1 in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let m = Middleware.deploy ~engine ~params ~platform tree in
  Alcotest.(check bool) "agent target rejected" true
    (match Middleware.request_service m ~server:0 ~wapp:1.0 ~on_done:(fun () -> ()) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_middleware_ids () =
  let platform = star_platform 2 in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let m = Middleware.deploy ~engine ~params ~platform tree in
  Alcotest.(check int) "root" 0 (Middleware.root m);
  Alcotest.(check (list int)) "servers" [ 1; 2 ] (Middleware.server_ids m);
  Alcotest.(check (list int)) "agents" [ 0 ] (Middleware.agent_ids m)

(* ---------- Run_stats ---------- *)

let test_run_stats () =
  let s = Run_stats.create () in
  Run_stats.record_issue s ~time:0.0;
  Run_stats.record_issue s ~time:0.5;
  Run_stats.record_completion s ~issued_at:0.0 ~time:1.0 ~server:3;
  Run_stats.record_completion s ~issued_at:0.5 ~time:2.0 ~server:3;
  Alcotest.(check int) "issued" 2 (Run_stats.issued s);
  Alcotest.(check int) "completed" 2 (Run_stats.completed s);
  Alcotest.(check int) "window count" 1 (Run_stats.completions_in s ~t0:1.5 ~t1:2.5);
  check_close "throughput" 1.0 (Run_stats.throughput s ~t0:1.5 ~t1:2.5);
  Alcotest.(check (list (pair int int))) "per server" [ (3, 2) ] (Run_stats.per_server s);
  check_close "mean response" 1.25 (Option.get (Run_stats.mean_response_time s))

let test_run_stats_empty_window () =
  let s = Run_stats.create () in
  Alcotest.(check bool) "bad window" true
    (match Run_stats.throughput s ~t0:1.0 ~t1:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Scenario ---------- *)

let scenario ?selection ?(servers = 2) ?(dgemm = 200) () =
  let platform = star_platform servers in
  let tree = star_tree platform in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make dgemm) in
  Scenario.make ?selection ~params ~platform
    ~client:(Adept_workload.Client.closed_loop job) tree

let test_scenario_matches_model () =
  let s = scenario () in
  let r = Scenario.run_fixed s ~clients:20 ~warmup:1.0 ~duration:3.0 in
  let platform = s.Scenario.platform in
  let rho =
    Adept.Evaluate.rho_on params ~platform ~wapp:Adept_workload.Dgemm.(mflops (make 200))
      s.Scenario.tree
  in
  Alcotest.(check bool) "within 5% of Eq. 16" true
    (Float.abs (r.Scenario.throughput -. rho) /. rho < 0.05)

let test_scenario_deterministic () =
  let r1 = Scenario.run_fixed (scenario ()) ~clients:10 ~warmup:0.5 ~duration:1.0 in
  let r2 = Scenario.run_fixed (scenario ()) ~clients:10 ~warmup:0.5 ~duration:1.0 in
  check_close "same throughput" r1.Scenario.throughput r2.Scenario.throughput;
  Alcotest.(check int) "same completions" r1.Scenario.completed_total
    r2.Scenario.completed_total

let test_scenario_conservation () =
  let r = Scenario.run_fixed (scenario ()) ~clients:15 ~warmup:0.5 ~duration:1.0 in
  Alcotest.(check bool) "completed <= issued" true
    (r.Scenario.completed_total <= r.Scenario.issued_total);
  let per_server_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 r.Scenario.per_server
  in
  Alcotest.(check int) "per-server sums to completed" r.Scenario.completed_total
    per_server_total

let test_scenario_series_monotone_until_saturation () =
  let series =
    Scenario.throughput_series (scenario ()) ~client_counts:[ 1; 4; 16 ] ~warmup:1.0
      ~duration:2.0
  in
  match List.map snd series with
  | [ t1; t4; t16 ] ->
      Alcotest.(check bool) "1 < 4 clients" true (t1 < t4);
      Alcotest.(check bool) "16 clients saturated >= 4 * 0.9" true (t16 >= t4 *. 0.9)
  | _ -> Alcotest.fail "series shape"

let test_scenario_saturation () =
  let clients, throughput =
    Scenario.saturation_throughput (scenario ()) ~warmup:0.5 ~duration:1.5
  in
  Alcotest.(check bool) "found saturation" true (clients >= 1);
  Alcotest.(check bool) "near model" true (Float.abs (throughput -. 90.7) < 6.0)

let test_scenario_validation () =
  Alcotest.(check bool) "zero clients" true
    (match Scenario.run_fixed (scenario ()) ~clients:0 ~warmup:0.0 ~duration:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_scenario_open_loop_tracks_rate () =
  (* star-2 sustains ~91 req/s; a 40 req/s Poisson stream must pass through *)
  let s = scenario () in
  let r = Scenario.run_open s ~rate:40.0 ~warmup:2.0 ~duration:8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.1f tracks the 40 req/s arrivals" r.Scenario.throughput)
    true
    (Float.abs (r.Scenario.throughput -. 40.0) < 5.0);
  (* below saturation, responses stay near the no-load service time *)
  let p95 = Option.get r.Scenario.p95_response in
  Alcotest.(check bool) (Printf.sprintf "bounded p95 %.3f" p95) true (p95 < 0.5)

let test_scenario_open_loop_overload_backlogs () =
  (* 3x the capacity: completions cap at rho and latency keeps growing *)
  let s = scenario () in
  let r = Scenario.run_open s ~rate:270.0 ~warmup:2.0 ~duration:8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "completions capped near capacity (got %.1f)" r.Scenario.throughput)
    true
    (r.Scenario.throughput < 110.0);
  Alcotest.(check bool) "backlog builds" true
    (r.Scenario.issued_total > r.Scenario.completed_total + 100)

let test_scenario_open_loop_deterministic () =
  let r1 = Scenario.run_open (scenario ()) ~rate:30.0 ~warmup:1.0 ~duration:3.0 in
  let r2 = Scenario.run_open (scenario ()) ~rate:30.0 ~warmup:1.0 ~duration:3.0 in
  Alcotest.(check int) "same issued" r1.Scenario.issued_total r2.Scenario.issued_total;
  Alcotest.(check (float 1e-9)) "same throughput" r1.Scenario.throughput
    r2.Scenario.throughput

let test_scenario_percentiles_ordered () =
  let r = Scenario.run_fixed (scenario ()) ~clients:20 ~warmup:1.0 ~duration:3.0 in
  let mean = Option.get r.Scenario.mean_response in
  let p95 = Option.get r.Scenario.p95_response in
  Alcotest.(check bool) "p95 >= mean for right-skewed latencies" true (p95 >= mean *. 0.5);
  Alcotest.(check bool) "both positive" true (mean > 0.0 && p95 > 0.0)

let test_scenario_think_time_lowers_load () =
  let platform = star_platform 1 in
  let tree = star_tree platform in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let lazy_client =
    Adept_workload.Client.make ~think_time:1.0 (Adept_workload.Mix.single job)
  in
  let s = Scenario.make ~params ~platform ~client:lazy_client tree in
  let r = Scenario.run_fixed s ~clients:5 ~warmup:1.0 ~duration:4.0 in
  (* 5 clients with >= 1s cycle each can at most do ~5 req/s *)
  Alcotest.(check bool) "throttled by think time" true (r.Scenario.throughput < 6.0)

(* ---------- Faults ---------- *)

let test_faults_none_inert () =
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  Alcotest.(check bool) "make () is none" true (Faults.is_none (Faults.make_exn ()));
  Alcotest.(check bool) "a crash is not none" false
    (Faults.is_none (Faults.crash ~node:1 ~at:1.0 (Faults.make_exn ())));
  Alcotest.(check bool) "message loss is not none" false
    (Faults.is_none
       (Faults.with_message_loss ~probability:0.1 ~seed:3 (Faults.make_exn ())))

let test_faults_validation () =
  let invalid f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "recover before crash" true
    (invalid (fun () -> Faults.crash ~node:1 ~at:2.0 ~recover_at:1.0 (Faults.make_exn ())));
  Alcotest.(check bool) "probability >= 1" true
    (invalid (fun () ->
         Faults.with_message_loss ~probability:1.0 ~seed:1 (Faults.make_exn ())));
  Alcotest.(check bool) "zero degradation factor" true
    (invalid (fun () -> Faults.degrade ~from_:0.0 ~until:1.0 ~factor:0.0 (Faults.make_exn ())));
  Alcotest.(check bool) "backoff below 1" true
    (invalid (fun () -> Faults.make_exn ~backoff:0.5 ()));
  (* Faults.make itself never raises: each bad parameter is a typed
     Invalid_input naming the offender. *)
  let invalid_input label = function
    | Error (Adept.Error.Invalid_input _) -> ()
    | Error e ->
        Alcotest.fail (label ^ ": wrong error " ^ Adept.Error.to_string e)
    | Ok _ -> Alcotest.fail (label ^ ": accepted")
  in
  invalid_input "zero timeout" (Faults.make ~timeout:0.0 ());
  invalid_input "negative service_timeout" (Faults.make ~service_timeout:(-1.0) ());
  invalid_input "negative retries" (Faults.make ~max_retries:(-1) ());
  invalid_input "backoff below 1" (Faults.make ~backoff:0.5 ());
  invalid_input "nan patience" (Faults.make ~patience:Float.nan ());
  Alcotest.(check bool) "good parameters accepted" true
    (Result.is_ok (Faults.make ~timeout:1.0 ~backoff:1.0 ~max_retries:0 ()))

let test_faults_bandwidth_factor () =
  let f =
    Faults.make_exn ()
    |> Faults.degrade ~from_:1.0 ~until:2.0 ~factor:0.5
    |> Faults.degrade ~from_:1.5 ~until:3.0 ~factor:0.5
  in
  check_close "outside all windows" 1.0 (Faults.bandwidth_factor f ~now:0.5);
  check_close "inside one window" 0.5 (Faults.bandwidth_factor f ~now:1.2);
  check_close "overlapping windows multiply" 0.25 (Faults.bandwidth_factor f ~now:1.7)

let test_faults_seeded_crashes_deterministic () =
  let gen seed =
    Faults.seeded_crashes
      ~rng:(Adept_util.Rng.create seed)
      ~nodes:[ 1; 2; 3 ] ~rate:0.5 ~mttr:1.0 ~horizon:10.0 (Faults.make_exn ())
  in
  let events seed =
    List.map
      (fun (e : Faults.node_event) -> (e.Faults.node, e.Faults.at, e.Faults.kind))
      (Faults.events_before (gen seed) ~horizon:10.0)
  in
  Alcotest.(check bool) "same seed, same schedule" true (events 4 = events 4);
  Alcotest.(check bool) "non-empty at rate 0.5 over 10s" true (events 4 <> []);
  let times = List.map (fun (_, t, _) -> t) (events 4) in
  Alcotest.(check bool) "chronological" true (List.sort Float.compare times = times)

(* A structural fingerprint of everything a trace records; exact float
   equality throughout — the determinism regression compares these. *)
let trace_fingerprint tr =
  let kinds =
    [ Trace.Sched_request; Trace.Sched_reply; Trace.Service_request; Trace.Service_reply ]
  in
  let roles = [ Trace.Agent_end; Trace.Server_end; Trace.Client_end ] in
  let counts =
    List.concat_map (fun k -> List.map (fun r -> Trace.message_count tr k r) roles) kinds
  in
  ( counts,
    Trace.total_mbit tr,
    Trace.agent_request_computes tr,
    Trace.reply_samples tr,
    Trace.server_predictions tr,
    Trace.failures tr )

let fault_scenario ?faults ~seed () =
  let platform = star_platform 3 in
  let tree = star_tree platform in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  Scenario.make ?faults ~seed ~params ~platform
    ~client:(Adept_workload.Client.closed_loop job) tree

let test_scenario_empty_faults_bit_identical () =
  (* the ISSUE's determinism regression: a run with no fault argument, one
     with Faults.none and one with an empty Faults.make () must produce
     identical traces and stats — the fault machinery may not perturb the
     event stream at all when inert *)
  let run faults =
    let s = fault_scenario ?faults ~seed:5 () in
    let trace = Trace.create () in
    let r = Scenario.run_fixed ~trace s ~clients:12 ~warmup:0.5 ~duration:2.0 in
    (r, trace_fingerprint trace)
  in
  let r0, f0 = run None in
  let r1, f1 = run (Some Faults.none) in
  let r2, f2 = run (Some (Faults.make_exn ())) in
  Alcotest.(check bool) "Faults.none: identical trace" true (f1 = f0);
  Alcotest.(check bool) "Faults.make_exn (): identical trace" true (f2 = f0);
  List.iter
    (fun (name, (r : Scenario.run_result)) ->
      Alcotest.(check (float 0.0)) (name ^ ": throughput bit-identical")
        r0.Scenario.throughput r.Scenario.throughput;
      Alcotest.(check int) (name ^ ": completed") r0.Scenario.completed_total
        r.Scenario.completed_total;
      Alcotest.(check int) (name ^ ": issued") r0.Scenario.issued_total
        r.Scenario.issued_total;
      Alcotest.(check int) (name ^ ": nothing lost") 0 r.Scenario.lost_total;
      Alcotest.(check (option (float 0.0))) (name ^ ": mean response")
        r0.Scenario.mean_response r.Scenario.mean_response;
      Alcotest.(check bool) (name ^ ": fault stats all zero") true
        (r.Scenario.faults = r0.Scenario.faults
        && r.Scenario.faults.Middleware.crashes = 0
        && r.Scenario.faults.Middleware.messages_lost = 0
        && r.Scenario.faults.Middleware.recovery_latencies = []))
    [ ("Faults.none", r1); ("Faults.make_exn ()", r2) ];
  let _, _, _, _, _, failures = f0 in
  Alcotest.(check int) "no failure events" 0 (List.length failures)

let test_scenario_rtrace_rate_zero_bit_identical () =
  (* the ISSUE's determinism regression, extended to request tracing: a
     run with no trace store, one with a rate-0 store and one with a
     rate-1 store must replay the exact same event stream — tracing is
     observation-only *)
  let run rtrace =
    let s = fault_scenario ~seed:5 () in
    let trace = Trace.create () in
    let r = Scenario.run_fixed ~trace ?rtrace s ~clients:12 ~warmup:0.5 ~duration:2.0 in
    (r.Scenario.throughput, r.Scenario.completed_total, r.Scenario.issued_total,
     r.Scenario.mean_response, trace_fingerprint trace)
  in
  let off = Adept_obs.Request_trace.create ~sample_rate:0.0 () in
  let on = Adept_obs.Request_trace.create ~sample_rate:1.0 () in
  let plain = run None in
  Alcotest.(check bool) "rate 0 bit-identical to no store" true
    (run (Some off) = plain);
  Alcotest.(check bool) "rate 1 bit-identical to no store" true
    (run (Some on) = plain);
  Alcotest.(check int) "rate 0 sampled nothing" 0
    (Adept_obs.Request_trace.sampled off);
  Alcotest.(check bool) "rate 0 still assigned ids" true
    (Adept_obs.Request_trace.requests_seen off > 0);
  Alcotest.(check bool) "rate 1 finished traces" true
    (Adept_obs.Request_trace.finished on > 0)

let test_scenario_fault_run_deterministic () =
  (* same non-trivial fault schedule + same seed => identical everything,
     including the message-loss stream *)
  let run () =
    let faults =
      Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
      |> Faults.crash ~node:1 ~at:1.2 ~recover_at:2.6
      |> Faults.with_message_loss ~probability:0.05 ~seed:9
    in
    let s = fault_scenario ~faults ~seed:5 () in
    let trace = Trace.create () in
    let r = Scenario.run_fixed ~trace s ~clients:12 ~warmup:0.5 ~duration:2.5 in
    ( r.Scenario.throughput,
      r.Scenario.completed_total,
      r.Scenario.issued_total,
      r.Scenario.lost_total,
      r.Scenario.faults,
      trace_fingerprint trace )
  in
  Alcotest.(check bool) "fault run replays identically" true (run () = run ())

let test_scenario_crash_metrics_nonzero () =
  (* the ISSUE's fault-path test: a server crash mid-run must surface in
     every fault metric — lost requests, recovery latency, prune/rejoin *)
  let platform = star_platform 2 in
  let tree = star_tree platform in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  let faults =
    Faults.make_exn ~timeout:0.3 ~service_timeout:0.4 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.5 ~recover_at:3.5
  in
  let s =
    Scenario.make ~faults ~seed:3 ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  let trace = Trace.create () in
  let r = Scenario.run_fixed ~trace s ~clients:10 ~warmup:1.0 ~duration:4.0 in
  let fs = r.Scenario.faults in
  Alcotest.(check int) "one crash" 1 fs.Middleware.crashes;
  Alcotest.(check int) "one recovery" 1 fs.Middleware.recoveries;
  Alcotest.(check bool) "parent pruned the dead child" true (fs.Middleware.prunes >= 1);
  Alcotest.(check bool) "child rejoined after recovery" true (fs.Middleware.rejoins >= 1);
  Alcotest.(check bool) "lost requests recorded" true (r.Scenario.lost_total > 0);
  Alcotest.(check bool) "recovery latencies recorded and positive" true
    (fs.Middleware.recovery_latencies <> []
    && List.for_all (fun l -> l > 0.0) fs.Middleware.recovery_latencies);
  Alcotest.(check bool) "failure events traced" true (Trace.failure_count trace > 0);
  Alcotest.(check bool) "crash event present" true
    (List.exists (fun (_, f) -> f = Trace.Node_crash 1) (Trace.failures trace));
  Alcotest.(check bool) "prune event names agent and child" true
    (List.exists
       (fun (_, f) -> match f with Trace.Child_pruned (0, 1) -> true | _ -> false)
       (Trace.failures trace));
  Alcotest.(check bool) "the surviving server keeps completing" true
    (r.Scenario.completed_total > 0);
  Alcotest.(check bool) "conservation with losses" true
    (r.Scenario.completed_total + r.Scenario.lost_total <= r.Scenario.issued_total);
  Alcotest.(check int) "trace latencies match middleware stats"
    (List.length fs.Middleware.recovery_latencies)
    (Array.length (Trace.recovery_latencies trace))

let test_scenario_message_loss_metrics () =
  let faults =
    Faults.make_exn ~timeout:0.3 ~service_timeout:0.5 ()
    |> Faults.with_message_loss ~probability:0.15 ~seed:11
  in
  let s = fault_scenario ~faults ~seed:5 () in
  let r = Scenario.run_fixed s ~clients:8 ~warmup:1.0 ~duration:3.0 in
  let fs = r.Scenario.faults in
  Alcotest.(check bool) "messages dropped" true (fs.Middleware.messages_lost > 0);
  Alcotest.(check bool) "timeouts and retries happened" true (fs.Middleware.timeouts > 0);
  Alcotest.(check int) "no crashes" 0 fs.Middleware.crashes;
  Alcotest.(check bool) "the system still completes requests" true
    (r.Scenario.completed_total > 0)

let test_middleware_initial_dead_not_resurrected () =
  (* REVIEW regression: a generation deployed mid-run must inherit the
     previous generation's liveness — a node dead at enactment but kept
     in the new tree starts dead (it must not serve during its remaining
     downtime), its pending Recover event genuinely revives it, and the
     crash the old generation already counted is not re-counted. *)
  let platform = star_platform 3 in
  let tree = star_tree platform in
  let engine = Engine.create () in
  let faults =
    Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:0.5 ~recover_at:3.0
  in
  let m0 = Middleware.deploy ~faults ~engine ~params ~platform tree in
  ignore (Engine.run ~until:1.0 engine);
  Alcotest.(check bool) "gen 0 saw the crash" false (Middleware.is_alive m0 1);
  Alcotest.(check (float 1e-9)) "crash time recorded" 0.5 (Middleware.crash_time m0 1);
  Middleware.retire m0;
  let m1 =
    Middleware.deploy ~faults ~engine ~params ~platform
      ~initial_dead:[ (1, Middleware.crash_time m0 1) ]
      tree
  in
  Alcotest.(check bool) "gen 1 starts with the node dead" false
    (Middleware.is_alive m1 1);
  Alcotest.(check (float 1e-9)) "crash time inherited" 0.5 (Middleware.crash_time m1 1);
  Alcotest.(check int) "the crash is not re-counted" 0
    (Middleware.fault_stats m1).Middleware.crashes;
  ignore (Engine.run ~until:4.0 engine);
  Alcotest.(check bool) "the pending Recover revives it in gen 1" true
    (Middleware.is_alive m1 1);
  Alcotest.(check int) "recovery counted once, in gen 1" 1
    (Middleware.fault_stats m1).Middleware.recoveries;
  Alcotest.(check int) "retired gen 0 counts no recovery" 0
    (Middleware.fault_stats m0).Middleware.recoveries

(* ---------- Controller ---------- *)

module Controller = Adept_sim.Controller

let controller_config ?(policy = Controller.Hysteresis) ?(threshold = 0.6)
    ?(min_gain = 0.05) () =
  match
    Controller.config ~sample_period:0.25 ~window:1.0 ~threshold ~hold_time:0.5
      ~cooldown:1.0 ~min_gain ~max_replans:4 ~restart_latency:0.3 ~state_mbit:1.0
      policy
  with
  | Ok c -> c
  | Error e -> Alcotest.fail (Adept.Error.to_string e)

let controller_scenario ?controller ~faults ~seed () =
  let platform = star_platform 3 in
  let tree = star_tree platform in
  (* 310x310 keeps the servers (not the agent) the binding resource, so
     losing one of three servers visibly degrades the observed rate *)
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 310) in
  Scenario.make ?controller ~faults ~seed ~params ~platform
    ~client:(Adept_workload.Client.closed_loop job) tree

let test_controller_threshold_zero_bit_identical () =
  (* the ISSUE's determinism regression: a controller that can never see
     degradation (threshold 0) must not perturb the event stream — its
     sampling ticks ride along without touching any visible state *)
  let faults () =
    Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.2 ~recover_at:2.6
  in
  let run controller =
    let s = controller_scenario ?controller ~faults:(faults ()) ~seed:5 () in
    let trace = Trace.create () in
    let r = Scenario.run_fixed ~trace s ~clients:12 ~warmup:0.5 ~duration:3.0 in
    (r, trace_fingerprint trace)
  in
  let r0, f0 = run None in
  let r1, f1 = run (Some (controller_config ~threshold:0.0 ())) in
  Alcotest.(check bool) "identical trace" true (f1 = f0);
  Alcotest.(check (float 0.0)) "throughput bit-identical" r0.Scenario.throughput
    r1.Scenario.throughput;
  Alcotest.(check int) "completed" r0.Scenario.completed_total r1.Scenario.completed_total;
  Alcotest.(check int) "issued" r0.Scenario.issued_total r1.Scenario.issued_total;
  Alcotest.(check int) "lost" r0.Scenario.lost_total r1.Scenario.lost_total;
  Alcotest.(check (option (float 0.0))) "mean response" r0.Scenario.mean_response
    r1.Scenario.mean_response;
  Alcotest.(check int) "no replans" 0 (List.length r1.Scenario.replans);
  Alcotest.(check int) "no migration losses" 0 r1.Scenario.migration_lost;
  Alcotest.(check (float 0.0)) "no degraded time" 0.0 r1.Scenario.degraded_seconds

let test_controller_enacts_on_permanent_crash () =
  (* a server lost for good degrades a 3-server star below threshold; the
     controller must replan around it and pay a real migration cost *)
  let faults =
    Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.0
  in
  let s = controller_scenario ~controller:(controller_config ()) ~faults ~seed:7 () in
  let r = Scenario.run_fixed s ~clients:12 ~warmup:0.5 ~duration:6.0 in
  Alcotest.(check bool) "replanned at least once" true (r.Scenario.replans <> []);
  let first = List.hd r.Scenario.replans in
  Alcotest.(check bool) "the dead node is written off" true
    (List.mem 1 first.Controller.failed);
  Alcotest.(check bool) "predicted gain over the observed rate" true
    (first.Controller.rho_after > first.Controller.observed);
  Alcotest.(check bool) "the new hierarchy predicts less than the old" true
    (first.Controller.rho_after < first.Controller.rho_before);
  Alcotest.(check bool) "migration cost is real" true
    (first.Controller.migration_cost > 0.0);
  (* a dead star server is the simple-crash path: striking it out of the
     running hierarchy is within slack of any from-scratch star, so the
     controller must cite an incremental replan *)
  Alcotest.(check string) "planned incrementally" "incremental"
    (Adept.Planner.replan_mode_name first.Controller.mode);
  Alcotest.(check bool) "degraded time recorded" true (r.Scenario.degraded_seconds > 0.0);
  Alcotest.(check bool) "requests keep completing after the heal" true
    (r.Scenario.completed_total > 0)

(* ---------- Monitor ---------- *)

module Monitor = Adept_sim.Monitor
module Alert = Adept_obs.Alert
module Rule = Adept_obs.Rule

let test_engine_schedule_every () =
  let engine = Engine.create () in
  let ticks = ref [] in
  Engine.schedule_every engine ~interval:0.5 ~until:2.2 (fun ~now ->
      ticks := now :: !ticks);
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-12)))
    "ticks at each interval up to the horizon" [ 0.5; 1.0; 1.5; 2.0 ]
    (List.rev !ticks);
  Alcotest.(check bool) "non-positive interval rejected" true
    (match
       Engine.schedule_every engine ~interval:0.0 ~until:1.0 (fun ~now:_ -> ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let star_monitor ~interval =
  let platform = star_platform 3 in
  let tree = star_tree platform in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  match
    Monitor.create ~interval
      ~selectors:(Monitor.default_selectors tree)
      (Monitor.model_rules ~params ~wapp tree)
  with
  | Ok m -> m
  | Error e -> Alcotest.fail (Adept.Error.to_string e)

let test_monitor_observation_only () =
  (* the tentpole's determinism regression: attaching the monitor (at any
     interval, 0 included) must not perturb the simulation — scrapes and
     alert evaluations only read sim state *)
  let faults () =
    Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.0
  in
  let run interval =
    let s =
      controller_scenario ~controller:(controller_config ())
        ~faults:(faults ()) ~seed:7 ()
    in
    let trace = Trace.create () in
    let monitor = Option.map (fun i -> star_monitor ~interval:i) interval in
    let r =
      Scenario.run_fixed ~trace ?monitor s ~clients:12 ~warmup:0.5 ~duration:6.0
    in
    ( ( r.Scenario.throughput,
        r.Scenario.completed_total,
        r.Scenario.issued_total,
        r.Scenario.lost_total,
        r.Scenario.mean_response,
        r.Scenario.migration_lost,
        r.Scenario.degraded_seconds ),
      (* replan records minus the alerts field, which is the monitor's
         one intended (and observation-only) contribution *)
      List.map
        (fun (rec_ : Controller.replan_record) ->
          ( rec_.Controller.at,
            rec_.Controller.failed,
            rec_.Controller.observed,
            rec_.Controller.rho_before,
            rec_.Controller.rho_after,
            rec_.Controller.migration_cost ))
        r.Scenario.replans,
      trace_fingerprint trace,
      monitor )
  in
  let core0, reps0, fp0, _ = run None in
  let core1, reps1, fp1, m1 = run (Some 0.25) in
  let core2, reps2, fp2, m2 = run (Some 0.0) in
  Alcotest.(check bool) "interval 0.25 bit-identical" true
    (core1 = core0 && reps1 = reps0 && fp1 = fp0);
  Alcotest.(check bool) "interval 0 bit-identical" true
    (core2 = core0 && reps2 = reps0 && fp2 = fp0);
  Alcotest.(check bool) "monitored run scraped" true
    (match m1 with Some m -> Monitor.scrapes m > 0 | None -> false);
  Alcotest.(check bool) "interval 0 never scrapes" true
    (match m2 with Some m -> Monitor.scrapes m = 0 | None -> false);
  Alcotest.(check bool) "replans happened (the regression is non-trivial)"
    true (reps0 <> [])

(* The acceptance scenario: a 10-node dary:3 hierarchy where crashing a
   mid-level agent orphans its three servers.  The measured rate drops
   well below Eq. 16, model-drift fires, the controller replans around
   the dead agent citing the alert, throughput recovers toward the new
   prediction, and the alert resolves. *)
let drift_scenario () =
  let platform =
    Adept_platform.Generator.homogeneous ~bandwidth:1000.0 ~n:10 ~power:730.0 ()
  in
  let wapp = Adept_workload.Dgemm.(mflops (make 310)) in
  let strategy =
    match Adept.Planner.strategy_of_string "dary:3" with
    | Ok s -> s
    | Error e -> Alcotest.fail (Adept.Error.to_string e)
  in
  let plan =
    match
      Adept.Planner.run strategy params ~platform ~wapp
        ~demand:Adept_model.Demand.unbounded
    with
    | Ok p -> p
    | Error e -> Alcotest.fail (Adept.Error.to_string e)
  in
  let tree = plan.Adept.Planner.tree in
  let faults =
    Faults.make_exn ~service_timeout:2.0 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.5
  in
  let controller =
    match
      Controller.config ~strategy ~sample_period:0.5 ~window:2.0 ~threshold:0.75
        ~hold_time:1.0 ~cooldown:2.0 ~max_replans:3 Controller.Hysteresis
    with
    | Ok c -> c
    | Error e -> Alcotest.fail (Adept.Error.to_string e)
  in
  let monitor =
    match
      Monitor.create ~interval:0.25
        ~selectors:(Monitor.default_selectors tree)
        (Monitor.model_rules ~hold:0.5 ~params ~wapp tree)
    with
    | Ok m -> m
    | Error e -> Alcotest.fail (Adept.Error.to_string e)
  in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 310) in
  let s =
    Scenario.make ~faults ~controller ~seed:42 ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) tree
  in
  (s, monitor)

let run_drift_scenario () =
  let s, monitor = drift_scenario () in
  let r = Scenario.run_fixed ~monitor s ~clients:16 ~warmup:0.5 ~duration:12.0 in
  (r, monitor)

let test_monitor_drift_cycle () =
  let r, monitor = run_drift_scenario () in
  let alerts = Monitor.alerts monitor in
  let edge_times edge =
    List.filter_map
      (fun (tr : Alert.transition) ->
        if tr.Alert.rule.Rule.name = "model-drift" && tr.Alert.edge = edge then
          Some tr.Alert.at
        else None)
      (Alert.transitions alerts)
  in
  let fired = edge_times Alert.To_firing in
  let resolved = edge_times Alert.To_resolved in
  Alcotest.(check int) "model-drift fires exactly once" 1 (List.length fired);
  let t_fire = List.hd fired in
  Alcotest.(check bool) "fires after the crash" true (t_fire > 1.5);
  Alcotest.(check int) "one replan" 1 (List.length r.Scenario.replans);
  let rep = List.hd r.Scenario.replans in
  Alcotest.(check bool) "the dead agent is written off" true
    (List.mem 1 rep.Controller.failed);
  Alcotest.(check bool) "replan enacted after the alert fired" true
    (rep.Controller.at > t_fire);
  Alcotest.(check (list string)) "replan cites the firing alert"
    [ "model-drift" ] rep.Controller.alerts;
  (* losing a mid-level agent orphans its whole subtree: the patched
     hierarchy trails the survivor bound, so the controller must fall
     back to a from-scratch replan and say why *)
  Alcotest.(check string) "fell back to a full replan" "full"
    (Adept.Planner.replan_mode_name rep.Controller.mode);
  Alcotest.(check (option string)) "with the fallback reason"
    (Some "rho-below-bound")
    (Adept.Planner.replan_fallback_reason rep.Controller.mode);
  Alcotest.(check int) "drift resolves exactly once" 1 (List.length resolved);
  Alcotest.(check bool) "resolves after the replan" true
    (List.hd resolved > rep.Controller.at);
  Alcotest.(check bool) "throughput recovered" true
    (r.Scenario.completed_total > 0 && Alert.firing_names alerts = [])

(* The alert timeline of that scenario, pinned byte-for-byte in
   test/golden/monitor_drift.jsonl.  A mismatch means the alert engine,
   the exporter or the simulation's accounting changed: if intentional,
   regenerate with
     MONITOR_GOLDEN_OUT=test/golden/monitor_drift.jsonl dune exec test/test_sim.exe
   and mention the break in the changelog. *)

let drift_timeline () =
  let _, monitor = run_drift_scenario () in
  Adept_obs.Export.alert_timeline_jsonl (Monitor.alerts monitor)

let read_golden name =
  let path = Filename.concat (Filename.dirname Sys.executable_name) name in
  In_channel.with_open_bin path In_channel.input_all

let test_monitor_golden_timeline () =
  let got = drift_timeline () in
  Alcotest.(check string) "byte-identical across runs" got (drift_timeline ());
  Alcotest.(check string) "matches golden"
    (read_golden "golden/monitor_drift.jsonl") got

(* The replan-mode breadcrumbs of the same run, pinned byte-for-byte in
   test/golden/replan_mode.jsonl: one line per enacted replan with how it
   was planned and, for a fallback, why the patch was rejected.  A
   mismatch means the incremental planner's acceptance decisions changed:
   if intentional, regenerate with
     REPLAN_GOLDEN_OUT=test/golden/replan_mode.jsonl dune exec test/test_sim.exe
   and mention the break in the changelog. *)

let replan_mode_jsonl (records : Controller.replan_record list) =
  let line (r : Controller.replan_record) =
    Printf.sprintf
      "{\"at\":%.6f,\"failed\":[%s],\"mode\":%S%s,\"rho_before\":%.6f,\"rho_after\":%.6f}\n"
      r.Controller.at
      (String.concat "," (List.map string_of_int r.Controller.failed))
      (Adept.Planner.replan_mode_name r.Controller.mode)
      (match Adept.Planner.replan_fallback_reason r.Controller.mode with
      | Some reason -> Printf.sprintf ",\"reason\":%S" reason
      | None -> "")
      r.Controller.rho_before r.Controller.rho_after
  in
  String.concat "" (List.map line records)

let drift_replan_modes () =
  let r, _ = run_drift_scenario () in
  replan_mode_jsonl r.Scenario.replans

let test_replan_mode_golden () =
  let got = drift_replan_modes () in
  Alcotest.(check string) "byte-identical across runs" got (drift_replan_modes ());
  Alcotest.(check string) "matches golden"
    (read_golden "golden/replan_mode.jsonl") got

(* ---------- Rollout ---------- *)

module Rollout = Adept_sim.Rollout
module SH = Adept_experiments.Self_heal

let rollout_config ?canary_fraction ?bake_window ?watch mode =
  match Rollout.config ?canary_fraction ?bake_window ?watch mode with
  | Ok c -> c
  | Error e -> Alcotest.fail (Adept.Error.to_string e)

let test_rollout_config_validation () =
  Alcotest.(check bool) "fraction 0 rejected" true
    (Result.is_error (Rollout.config ~canary_fraction:0.0 Rollout.Canary));
  Alcotest.(check bool) "fraction 1 rejected" true
    (Result.is_error (Rollout.config ~canary_fraction:1.0 Rollout.Canary));
  Alcotest.(check bool) "non-positive bake rejected" true
    (Result.is_error (Rollout.config ~bake_window:0.0 Rollout.Canary));
  Alcotest.(check bool) "off ignores bad parameters" true
    (Rollout.config ~canary_fraction:7.0 Rollout.Off = Ok Rollout.off);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("mode name roundtrips: " ^ Rollout.mode_name m)
        true
        (Rollout.mode_of_string (Rollout.mode_name m) = Ok m))
    [ Rollout.Off; Rollout.Direct; Rollout.Canary ];
  (* deterministic membership, and a fraction that actually splits *)
  let cfg = rollout_config ~canary_fraction:0.25 Rollout.Canary in
  let members = List.init 64 (fun c -> Rollout.is_canary cfg ~client:c) in
  Alcotest.(check bool) "membership is deterministic" true
    (members = List.init 64 (fun c -> Rollout.is_canary cfg ~client:c));
  let n = List.length (List.filter Fun.id members) in
  Alcotest.(check bool) "some but not all clients are canary" true
    (n > 0 && n < 64);
  Alcotest.(check bool) "off mode has no canaries" true
    (List.for_all not (List.init 64 (fun c -> Rollout.is_canary Rollout.off ~client:c)))

(* The determinism regression for the two non-staged modes: [Off] must be
   bit-identical to a controller run with no rollout argument at all, and
   [Direct] bit-identical to [Off] — its decision trail is Tracer-only
   observation riding on the same event stream. *)
let test_rollout_direct_bit_identical () =
  let run rollout =
    let faults =
      Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
      |> Faults.crash ~node:1 ~at:1.0
    in
    let controller =
      match
        Controller.config ~sample_period:0.25 ~window:1.0 ~threshold:0.6
          ~hold_time:0.5 ~cooldown:1.0 ~min_gain:0.0 ~max_replans:4
          ~restart_latency:0.3 ~state_mbit:1.0 ?rollout Controller.Hysteresis
      with
      | Ok c -> c
      | Error e -> Alcotest.fail (Adept.Error.to_string e)
    in
    let s = controller_scenario ~controller ~faults ~seed:7 () in
    let trace = Trace.create () in
    let r = Scenario.run_fixed ~trace s ~clients:12 ~warmup:0.5 ~duration:6.0 in
    (r, trace_fingerprint trace)
  in
  let core ((r : Scenario.run_result), fp) =
    ( r.Scenario.throughput,
      r.Scenario.completed_total,
      r.Scenario.issued_total,
      r.Scenario.lost_total,
      r.Scenario.mean_response,
      r.Scenario.migration_lost,
      r.Scenario.degraded_seconds,
      List.map
        (fun (rec_ : Controller.replan_record) ->
          ( rec_.Controller.at,
            rec_.Controller.failed,
            rec_.Controller.observed,
            rec_.Controller.rho_before,
            rec_.Controller.rho_after,
            rec_.Controller.migration_cost ))
        r.Scenario.replans,
      fp )
  in
  let base = run None in
  let off = run (Some Rollout.off) in
  let direct = run (Some (rollout_config Rollout.Direct)) in
  Alcotest.(check bool) "replans happened (the regression is non-trivial)"
    true ((fst base).Scenario.replans <> []);
  Alcotest.(check bool) "explicit Off bit-identical to default" true
    (core off = core base);
  Alcotest.(check bool) "Direct bit-identical to Off" true
    (core direct = core base);
  Alcotest.(check bool) "Off records carry no rollout" true
    (List.for_all
       (fun (rec_ : Controller.replan_record) -> rec_.Controller.rollout = None)
       (fst off).Scenario.replans);
  List.iter
    (fun (rec_ : Controller.replan_record) ->
      match rec_.Controller.rollout with
      | Some ro ->
          Alcotest.(check string) "Direct outcome" "direct"
            (Rollout.outcome_name ro.Rollout.outcome);
          Alcotest.(check (list string)) "Direct trail is one swap"
            [ "direct-enacted" ]
            (List.map
               (fun (e : Rollout.event) -> Rollout.step_name e.Rollout.step)
               ro.Rollout.trail)
      | None -> Alcotest.fail "Direct record carries no rollout trail")
    (fst direct).Scenario.replans

(* Satellite regression: a node that died, was written out by a replan and
   then recovered must be threaded back into the next replan's candidate
   platform, while off-tree nodes that are still dead stay excluded. *)
let test_rollout_readmission () =
  let faults =
    Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.0 ~recover_at:6.0
    |> Faults.crash ~node:3 ~at:1.0
    |> Faults.crash ~node:2 ~at:7.0
  in
  let s =
    controller_scenario
      ~controller:(controller_config ~min_gain:0.0 ())
      ~faults ~seed:7 ()
  in
  let r = Scenario.run_fixed s ~clients:12 ~warmup:0.5 ~duration:10.0 in
  Alcotest.(check bool) "the write-off and the re-admission both happened"
    true
    (List.length r.Scenario.replans >= 2);
  let first = List.hd r.Scenario.replans in
  let last = List.nth r.Scenario.replans (List.length r.Scenario.replans - 1) in
  Alcotest.(check bool) "first replan writes off both dead servers" true
    (List.mem 1 first.Controller.failed && List.mem 3 first.Controller.failed);
  Alcotest.(check bool) "second replan excludes the new corpse" true
    (List.mem 2 last.Controller.failed);
  Alcotest.(check bool) "still-dead off-tree node stays excluded" true
    (List.mem 3 last.Controller.failed);
  Alcotest.(check bool) "recovered node is no longer written off" true
    (not (List.mem 1 last.Controller.failed));
  Alcotest.(check bool) "recovered node serves in the final hierarchy" true
    (Tree.mem r.Scenario.final_tree 1);
  Alcotest.(check bool) "corpses are not in the final hierarchy" true
    (not (Tree.mem r.Scenario.final_tree 2)
    && not (Tree.mem r.Scenario.final_tree 3))

(* Incremental twin of [test_rollout_readmission]: the controller now
   threads its write-off ledger into the patcher as [~recovered], so the
   same crash/recover/crash schedule must re-admit the recovered node
   WITHOUT the full-replan fallback doing it implicitly — the final
   replan stays [Incremental] and still serves the recovered node. *)
let test_incremental_readmission () =
  let faults =
    Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
    |> Faults.crash ~node:1 ~at:1.0 ~recover_at:6.0
    |> Faults.crash ~node:3 ~at:1.0
    |> Faults.crash ~node:2 ~at:7.0
  in
  let s =
    controller_scenario
      ~controller:(controller_config ~min_gain:0.0 ())
      ~faults ~seed:7 ()
  in
  let r = Scenario.run_fixed s ~clients:12 ~warmup:0.5 ~duration:10.0 in
  Alcotest.(check bool) "the write-off and the re-admission both happened"
    true
    (List.length r.Scenario.replans >= 2);
  let last = List.nth r.Scenario.replans (List.length r.Scenario.replans - 1) in
  Alcotest.(check string)
    "re-admission went through the patcher, not the full fallback"
    "incremental"
    (Adept.Planner.replan_mode_name last.Controller.mode);
  Alcotest.(check bool) "recovered node serves in the final hierarchy" true
    (Tree.mem r.Scenario.final_tree 1);
  Alcotest.(check bool) "corpses stay out" true
    (not (Tree.mem r.Scenario.final_tree 2)
    && not (Tree.mem r.Scenario.final_tree 3))

(* The canonical demo reaches both verdicts: nothing further goes wrong
   and the canary promotes; a node dies mid-bake and the canary rolls
   back, citing the alert that condemned it. *)
let test_rollout_demo_outcomes () =
  let run flavor = SH.run_rollout ~flavor () in
  let outcomes (r : Scenario.run_result) =
    List.filter_map
      (fun (rec_ : Controller.replan_record) ->
        Option.map
          (fun (ro : Rollout.record) -> Rollout.outcome_name ro.Rollout.outcome)
          rec_.Controller.rollout)
      r.Scenario.replans
  in
  let healthy, _, tree = run SH.Healthy in
  Alcotest.(check (list string)) "healthy promotes" [ "promoted" ]
    (outcomes healthy);
  Alcotest.(check bool) "promotion swapped the serving hierarchy" true
    (not (Tree.equal healthy.Scenario.final_tree tree));
  Alcotest.(check bool) "the dead agent is gone from the promoted tree" true
    (not (Tree.mem healthy.Scenario.final_tree 1));
  let drift, _, _ = run SH.Drift in
  Alcotest.(check (list string)) "drift rolls back" [ "rolled-back" ]
    (outcomes drift);
  let ro =
    match
      List.filter_map
        (fun (rec_ : Controller.replan_record) -> rec_.Controller.rollout)
        drift.Scenario.replans
    with
    | [ ro ] -> ro
    | _ -> Alcotest.fail "expected exactly one finished rollout"
  in
  let cited =
    List.concat_map
      (fun (e : Rollout.event) ->
        if e.Rollout.step = Rollout.Rollback_started then e.Rollout.alerts
        else [])
      ro.Rollout.trail
  in
  Alcotest.(check (list string)) "rollback cites the condemning alert"
    [ "fleet-size" ] cited

(* The merged alert + rollout-decision timeline of the drift flavor,
   pinned byte-for-byte in test/golden/rollout_timeline.jsonl.  A
   mismatch means the rollout state machine, the alert engine or the
   simulation's accounting changed: if intentional, regenerate with
     ROLLOUT_GOLDEN_OUT=test/golden/rollout_timeline.jsonl dune exec test/test_sim.exe
   and mention the break in the changelog. *)

let rollout_timeline () =
  let r, monitor, _ = SH.run_rollout ~flavor:SH.Drift () in
  let trail =
    List.concat_map
      (fun (rec_ : Controller.replan_record) ->
        match rec_.Controller.rollout with
        | Some ro -> ro.Rollout.trail
        | None -> [])
      r.Scenario.replans
  in
  Rollout.timeline_jsonl ~alerts:(Monitor.alerts monitor) trail

let test_rollout_golden_timeline () =
  let got = rollout_timeline () in
  Alcotest.(check string) "byte-identical across runs" got (rollout_timeline ());
  Alcotest.(check string) "matches golden"
    (read_golden "golden/rollout_timeline.jsonl") got

(* Alert names are free text (they come from rule files), so the
   timeline must stay JSON whatever bytes they hold. *)
let test_rollout_timeline_escapes () =
  let name = "drift\x01caf\xc3\xa9 \"q\"\\" in
  let trail =
    [
      { Rollout.at = 1.0; step = Rollout.Canary_started; alerts = [ name ] };
      { Rollout.at = 2.5; step = Rollout.Rollback_finished; alerts = [] };
    ]
  in
  let lines =
    String.split_on_char '\n' (Rollout.timeline_jsonl trail)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let module Json = Adept_serve.Json in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.fail (Printf.sprintf "not JSON (%s): %s" e line)
      | Ok _ -> ())
    lines;
  let alerts =
    match Json.of_string (List.hd lines) with
    | Ok j -> Option.bind (Json.member "alerts" j) Json.to_list
    | Error _ -> None
  in
  Alcotest.(check (option (list (option string))))
    "alert name round-trips" (Some [ Some name ])
    (Option.map (List.map Json.to_string_v) alerts)

(* ---------- properties ---------- *)

let prop_controller_min_gain =
  QCheck.Test.make ~count:12
    ~name:"no enacted replan has predicted gain below the configured minimum"
    QCheck.(triple (int_range 0 10_000) (int_range 0 40) bool)
    (fun (seed, gain_pct, eager) ->
      let min_gain = float_of_int gain_pct /. 100.0 in
      let faults =
        Faults.make_exn ~service_timeout:0.5 ~patience:0.2 ()
        |> Faults.crash ~node:1 ~at:1.0
        |> Faults.seeded_crashes
             ~rng:(Adept_util.Rng.create seed)
             ~nodes:[ 2; 3 ] ~rate:0.4 ~mttr:0.6 ~horizon:5.0
      in
      let controller =
        controller_config
          ~policy:(if eager then Controller.Eager else Controller.Hysteresis)
          ~min_gain ()
      in
      let s = controller_scenario ~controller ~faults ~seed () in
      let r = Scenario.run_fixed s ~clients:8 ~warmup:0.5 ~duration:4.5 in
      List.for_all
        (fun (rec_ : Controller.replan_record) ->
          rec_.Controller.rho_after
          > (rec_.Controller.observed *. (1.0 +. min_gain)) -. 1e-9)
        r.Scenario.replans)

(* Rollback must restore the prior generation bit-identically: the serving
   tree is physically the same value (never re-planned, re-deployed or
   resurrected), every finished rollout in the drift flavor is a rollback
   (the fleet-size alert never clears), the record prices forward plus
   reverse migration, and successive rollouts respect the cooldown — a
   rollback may not reset the clocks and thrash. *)
let prop_rollout_rollback_restores =
  QCheck.Test.make ~count:6
    ~name:"a rolled-back canary restores the prior generation exactly"
    QCheck.(pair (int_range 5 60) (int_range 0 9))
    (fun (fraction_pct, bake_step) ->
      let canary_fraction = float_of_int fraction_pct /. 100.0 in
      let bake_window = 1.5 +. (0.2 *. float_of_int bake_step) in
      let r, _monitor, tree =
        SH.run_rollout ~canary_fraction ~bake_window ~flavor:SH.Drift ()
      in
      let rollouts =
        List.filter_map
          (fun (rec_ : Controller.replan_record) ->
            Option.map (fun ro -> (rec_, ro)) rec_.Controller.rollout)
          r.Scenario.replans
      in
      let step_at (ro : Rollout.record) step =
        List.find_map
          (fun (e : Rollout.event) ->
            if e.Rollout.step = step then Some e.Rollout.at else None)
          ro.Rollout.trail
      in
      let well_priced ((rec_ : Controller.replan_record), ro) =
        ro.Rollout.outcome = Rollout.Rolled_back
        &&
        match
          ( step_at ro Rollout.Canary_started,
            step_at ro Rollout.Canary_enacted,
            step_at ro Rollout.Rollback_started,
            step_at ro Rollout.Rollback_finished )
        with
        | Some t0, Some t1, Some t2, Some t3 ->
            t0 <= t1 && t1 <= t2 && t2 <= t3
            && Float.abs
                 (rec_.Controller.migration_cost -. (t1 -. t0 +. (t3 -. t2)))
               < 1e-6
            && Float.abs (rec_.Controller.at -. t3) < 1e-9
        | _ -> false
      in
      let rec cooldown_spaced = function
        | ((rec_ : Controller.replan_record), _) :: (((_, ro2) :: _) as rest) ->
            (match step_at ro2 Rollout.Canary_started with
            | Some s2 -> s2 >= rec_.Controller.at +. 2.0 -. 1e-6 && cooldown_spaced rest
            | None -> false)
        | _ -> true
      in
      rollouts <> []
      && r.Scenario.final_tree == tree
      && List.for_all well_priced rollouts
      && cooldown_spaced rollouts)

let prop_sim_conservation =
  QCheck.Test.make ~count:25
    ~name:"conservation laws hold on random deployments"
    QCheck.(pair (int_range 0 10_000) (int_range 3 14))
    (fun (seed, n) ->
      let rng = Adept_util.Rng.create seed in
      let platform =
        Adept_platform.Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n
          ~power_min:100.0 ~power_max:1500.0 ()
      in
      let tree =
        match Adept.Baselines.random ~rng (Adept_platform.Platform.nodes platform) with
        | Ok t -> t
        | Error _ -> QCheck.assume_fail ()
      in
      let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
      let s =
        Scenario.make ~seed ~params ~platform
          ~client:(Adept_workload.Client.closed_loop job) tree
      in
      let r = Scenario.run_fixed s ~clients:6 ~warmup:0.5 ~duration:1.0 in
      let per_server_total =
        List.fold_left (fun acc (_, c) -> acc + c) 0 r.Scenario.per_server
      in
      let server_ids =
        List.map Adept_platform.Node.id (Adept_hierarchy.Tree.servers tree)
      in
      r.Scenario.completed_total <= r.Scenario.issued_total
      && per_server_total = r.Scenario.completed_total
      && List.for_all (fun (id, _) -> List.mem id server_ids) r.Scenario.per_server
      && r.Scenario.throughput >= 0.0)

let prop_sim_busy_bounded =
  QCheck.Test.make ~count:25 ~name:"no resource is busy longer than the run"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Adept_util.Rng.create seed in
      let platform =
        Adept_platform.Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n:8
          ~power_min:200.0 ~power_max:1000.0 ()
      in
      let tree =
        match Adept.Baselines.star (Adept_platform.Platform.nodes platform) with
        | Ok t -> t
        | Error _ -> QCheck.assume_fail ()
      in
      let engine = Engine.create () in
      let m = Middleware.deploy ~engine ~params ~platform tree in
      let horizon = 2.0 in
      let rec loop () =
        if Engine.now engine < horizon then
          Middleware.submit m ~wapp:16.0
            ~on_scheduled:(fun ~server ->
              Middleware.request_service m ~server ~wapp:16.0 ~on_done:loop ())
            ()
      in
      for i = 0 to 4 do
        Engine.schedule_at engine ~time:(0.05 *. float_of_int i) loop
      done;
      ignore (Engine.run ~until:horizon engine);
      (* bookings may extend past the horizon by at most the backlog each
         port accepted; busy time is bounded by its own free_at *)
      List.for_all
        (fun id ->
          let r = Middleware.resource m id in
          Resource.busy_seconds r <= Resource.free_at r +. 1e-9)
        (Middleware.root m :: Middleware.server_ids m))

let () =
  (* regenerate the pinned alert timeline:
       MONITOR_GOLDEN_OUT=test/golden/monitor_drift.jsonl dune exec test/test_sim.exe *)
  (match Sys.getenv_opt "MONITOR_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (drift_timeline ()));
      Printf.printf "wrote %s\n%!" path;
      exit 0
  | None -> ());
  (* regenerate the pinned replan-mode breadcrumbs:
       REPLAN_GOLDEN_OUT=test/golden/replan_mode.jsonl dune exec test/test_sim.exe *)
  (match Sys.getenv_opt "REPLAN_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (drift_replan_modes ()));
      Printf.printf "wrote %s\n%!" path;
      exit 0
  | None -> ());
  (* regenerate the pinned rollout timeline:
       ROLLOUT_GOLDEN_OUT=test/golden/rollout_timeline.jsonl dune exec test/test_sim.exe *)
  (match Sys.getenv_opt "ROLLOUT_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (rollout_timeline ()));
      Printf.printf "wrote %s\n%!" path;
      exit 0
  | None -> ());
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "size/empty" `Quick test_queue_size_empty;
          Alcotest.test_case "nan" `Quick test_queue_nan;
          Alcotest.test_case "stress vs sort" `Quick test_queue_stress_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "event limit" `Quick test_engine_event_limit;
          Alcotest.test_case "past schedule rejected" `Quick test_engine_past_schedule;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "exhausted advances" `Quick
            test_engine_exhausted_advances_to_horizon;
          Alcotest.test_case "schedule_every" `Quick test_engine_schedule_every;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "observation only" `Slow
            test_monitor_observation_only;
          Alcotest.test_case "drift fire/replan/resolve" `Slow
            test_monitor_drift_cycle;
          Alcotest.test_case "golden timeline" `Slow
            test_monitor_golden_timeline;
          Alcotest.test_case "golden replan modes" `Slow
            test_replan_mode_golden;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serial booking" `Quick test_resource_serial_booking;
          Alcotest.test_case "backlog/busy" `Quick test_resource_backlog_busy;
          Alcotest.test_case "charge" `Quick test_resource_charge;
          Alcotest.test_case "monotonic now" `Quick test_resource_monotonic_now;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "validation" `Quick test_resource_validation;
        ] );
      ( "network",
        [
          Alcotest.test_case "port to port" `Quick test_network_port_to_port;
          Alcotest.test_case "latency" `Quick test_network_latency;
          Alcotest.test_case "lane semantics" `Quick
            test_network_lane_charges_but_does_not_delay;
          Alcotest.test_case "send contention" `Quick test_network_queueing_contention;
          Alcotest.test_case "validation" `Quick test_network_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "samples" `Quick test_trace_samples;
        ] );
      ( "middleware",
        [
          Alcotest.test_case "single request timing" `Quick
            test_middleware_single_request_timing;
          Alcotest.test_case "selects stronger server" `Quick
            test_middleware_selects_stronger_server;
          Alcotest.test_case "round robin" `Quick test_middleware_round_robin;
          Alcotest.test_case "two-level flow" `Quick test_middleware_two_level_flow;
          Alcotest.test_case "database selection" `Quick
            test_middleware_database_selection;
          Alcotest.test_case "database requires period" `Quick
            test_middleware_database_requires_period;
          Alcotest.test_case "deploy validates" `Quick test_middleware_deploy_validates;
          Alcotest.test_case "service to agent rejected" `Quick
            test_middleware_service_to_agent_rejected;
          Alcotest.test_case "ids" `Quick test_middleware_ids;
        ] );
      ( "run_stats",
        [
          Alcotest.test_case "accounting" `Quick test_run_stats;
          Alcotest.test_case "empty window" `Quick test_run_stats_empty_window;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "matches model" `Quick test_scenario_matches_model;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "conservation" `Quick test_scenario_conservation;
          Alcotest.test_case "series monotone" `Quick
            test_scenario_series_monotone_until_saturation;
          Alcotest.test_case "saturation probe" `Quick test_scenario_saturation;
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "think time" `Quick test_scenario_think_time_lowers_load;
          Alcotest.test_case "open loop tracks rate" `Quick
            test_scenario_open_loop_tracks_rate;
          Alcotest.test_case "open loop overload" `Quick
            test_scenario_open_loop_overload_backlogs;
          Alcotest.test_case "open loop deterministic" `Quick
            test_scenario_open_loop_deterministic;
          Alcotest.test_case "percentiles" `Quick test_scenario_percentiles_ordered;
        ] );
      ( "faults",
        [
          Alcotest.test_case "none is inert" `Quick test_faults_none_inert;
          Alcotest.test_case "validation" `Quick test_faults_validation;
          Alcotest.test_case "bandwidth factor" `Quick test_faults_bandwidth_factor;
          Alcotest.test_case "seeded crashes deterministic" `Quick
            test_faults_seeded_crashes_deterministic;
          Alcotest.test_case "empty schedule bit-identical" `Quick
            test_scenario_empty_faults_bit_identical;
          Alcotest.test_case "rtrace rate 0 bit-identical" `Quick
            test_scenario_rtrace_rate_zero_bit_identical;
          Alcotest.test_case "fault run deterministic" `Quick
            test_scenario_fault_run_deterministic;
          Alcotest.test_case "crash metrics non-zero" `Quick
            test_scenario_crash_metrics_nonzero;
          Alcotest.test_case "message loss metrics" `Quick
            test_scenario_message_loss_metrics;
          Alcotest.test_case "initial dead not resurrected" `Quick
            test_middleware_initial_dead_not_resurrected;
        ] );
      ( "controller",
        [
          Alcotest.test_case "threshold 0 bit-identical" `Quick
            test_controller_threshold_zero_bit_identical;
          Alcotest.test_case "enacts on permanent crash" `Quick
            test_controller_enacts_on_permanent_crash;
        ] );
      ( "rollout",
        [
          Alcotest.test_case "config validation" `Quick
            test_rollout_config_validation;
          Alcotest.test_case "direct bit-identical" `Slow
            test_rollout_direct_bit_identical;
          Alcotest.test_case "node re-admission" `Slow test_rollout_readmission;
          Alcotest.test_case "incremental node re-admission" `Slow
            test_incremental_readmission;
          Alcotest.test_case "demo outcomes" `Slow test_rollout_demo_outcomes;
          Alcotest.test_case "golden timeline" `Slow
            test_rollout_golden_timeline;
          Alcotest.test_case "timeline escapes" `Quick
            test_rollout_timeline_escapes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sim_conservation;
            prop_sim_busy_bounded;
            prop_controller_min_gain;
            prop_rollout_rollback_restores;
          ] );
    ]
