let l_node = "node"
let l_level = "level"
let l_kind = "kind"
let l_role = "role"
let l_reason = "reason"
let l_strategy = "strategy"
let l_alertname = "alertname"
let l_alertstate = "alertstate"
let l_severity = "severity"
let l_step = "step"
let l_method = "method"

let node_label id = (l_node, string_of_int id)
let level_label depth = (l_level, string_of_int depth)

let messages_total = "adept_messages_total"
let message_mbit_total = "adept_message_mbit_total"
let agent_request_compute_seconds = "adept_agent_request_compute_seconds"
let agent_reply_compute_seconds = "adept_agent_reply_compute_seconds"
let server_prediction_seconds = "adept_server_prediction_seconds"
let server_service_seconds = "adept_server_service_seconds"
let server_backlog_seconds = "adept_server_backlog_seconds"
let agent_inflight_requests = "adept_agent_inflight_requests"

let sched_latency_seconds = "adept_sched_latency_seconds"
let response_seconds = "adept_response_seconds"
let requests_issued_total = "adept_requests_issued_total"
let requests_completed_total = "adept_requests_completed_total"
let requests_lost_total = "adept_requests_lost_total"
let node_utilization_ratio = "adept_node_utilization_ratio"
let run_duration_seconds = "adept_run_duration_seconds"
let run_measured_throughput = "adept_run_measured_throughput"

let controller_replans_total = "adept_controller_replans_total"
let controller_suppressed_total = "adept_controller_suppressed_total"
let controller_migration_seconds = "adept_controller_migration_seconds"
let controller_window_throughput = "adept_controller_window_throughput"
let controller_degraded_samples_total = "adept_controller_degraded_samples_total"
let rollout_transitions_total = "adept_rollout_transitions_total"

let planner_evaluations_total = "adept_planner_evaluations_total"
let planner_plans_total = "adept_planner_plans_total"

let serve_requests_total = "adept_serve_requests_total"
let serve_errors_total = "adept_serve_errors_total"
let serve_cache_hits_total = "adept_serve_cache_hits_total"
let serve_cache_misses_total = "adept_serve_cache_misses_total"
let serve_cache_evictions_total = "adept_serve_cache_evictions_total"
let serve_cache_invalidations_total = "adept_serve_cache_invalidations_total"
let serve_coalesced_total = "adept_serve_coalesced_total"
let serve_inflight_requests = "adept_serve_inflight_requests"
let serve_request_seconds = "adept_serve_request_seconds"
let serve_cache_hit_ratio = "adept_serve_cache_hit_ratio"
let serve_cache_eviction_age_seconds = "adept_serve_cache_eviction_age_seconds"
let serve_traces_sampled_total = "adept_serve_traces_sampled_total"
let serve_scrapes_total = "adept_serve_scrapes_total"
let serve_journal_records_total = "adept_serve_journal_records_total"
let serve_journal_bytes_total = "adept_serve_journal_bytes_total"
let serve_otlp_exports_total = "adept_serve_otlp_exports_total"

let runtime_gc_pause_seconds = "adept_runtime_gc_pause_seconds"
let runtime_domain_busy_ratio = "adept_runtime_domain_busy_ratio"
let runtime_events_total = "adept_runtime_events_total"

let l_phase = "phase"
let l_domain = "domain"

let model_predicted_rho = "adept_model_predicted_rho"
let model_rho_sched = "adept_model_rho_sched"
let model_rho_service = "adept_model_rho_service"
let alive_nodes = "adept_alive_nodes"
let monitor_scrapes_total = "adept_monitor_scrapes_total"
let alerts_series = "ALERTS"

let help_table =
  [
    (messages_total, "Middleware messages sent, by kind and endpoint role.");
    (message_mbit_total, "Middleware payload volume in Mbit, by kind and role.");
    ( agent_request_compute_seconds,
      "Agent request-processing compute time per message (Eq. 3 wreq/w)." );
    ( agent_reply_compute_seconds,
      "Agent reply-aggregation compute time per message (Eq. 3 wrep(d)/w)." );
    ( server_prediction_seconds,
      "Server performance-prediction compute time per request (Eq. 4 wpre/w)." );
    ( server_service_seconds,
      "Server application service time per job (Eq. 5 wapp/w)." );
    (server_backlog_seconds, "Server queue backlog observed at dispatch time.");
    (agent_inflight_requests, "Scheduling requests currently held by the agent.");
    (sched_latency_seconds, "End-to-end scheduling latency per completed request.");
    (response_seconds, "End-to-end response time per completed request.");
    (requests_issued_total, "Requests issued by clients.");
    (requests_completed_total, "Requests whose reply reached the client.");
    (requests_lost_total, "Requests lost to faults, timeouts or abandonment.");
    (node_utilization_ratio, "Busy-time fraction of the run horizon, per node.");
    (run_duration_seconds, "Measured portion of the run (horizon - warmup).");
    ( run_measured_throughput,
      "Completed requests/s over the measured portion (compare Eq. 16 rho)." );
    (controller_replans_total, "Redeployments enacted by the controller.");
    ( controller_suppressed_total,
      "Replan decisions suppressed, by guard reason." );
    (controller_migration_seconds, "Migration cost per enacted redeployment.");
    ( controller_window_throughput,
      "Latest sliding-window throughput sample seen by the controller." );
    ( controller_degraded_samples_total,
      "Controller samples below the degradation threshold." );
    ( rollout_transitions_total,
      "Staged-rollout state-machine transitions, by step." );
    (planner_evaluations_total, "Candidate hierarchies evaluated while planning.");
    (planner_plans_total, "Planning passes, by strategy.");
    (serve_requests_total, "Requests answered by the planning server, by method.");
    (serve_errors_total, "Requests the planning server rejected, by reason.");
    (serve_cache_hits_total, "Plan-fragment cache hits.");
    (serve_cache_misses_total, "Plan-fragment cache misses.");
    ( serve_cache_evictions_total,
      "Plan-fragment cache entries evicted by the capacity bound (LRU)." );
    ( serve_cache_invalidations_total,
      "Plan-fragment cache entries dropped by replan node-death deltas." );
    ( serve_coalesced_total,
      "Requests answered by an identical in-flight computation." );
    (serve_inflight_requests, "Server requests currently being computed.");
    (serve_request_seconds, "Wall-clock seconds per answered request, by method.");
    ( serve_cache_hit_ratio,
      "Plan-fragment cache hits / lookups since server start (gauge)." );
    ( serve_cache_eviction_age_seconds,
      "Age of plan-fragment cache entries at LRU eviction." );
    ( serve_traces_sampled_total,
      "Requests whose trace context was head-sampled into the span store." );
    (serve_scrapes_total, "Wall-clock registry scrapes taken by the server.");
    ( serve_journal_records_total,
      "Flight-recorder records appended by the planning server." );
    ( serve_journal_bytes_total,
      "Flight-recorder bytes appended (record framing included)." );
    ( serve_otlp_exports_total,
      "OTLP documents exported (file rewrites plus TCP pushes)." );
    ( runtime_gc_pause_seconds,
      "OCaml runtime GC pause/phase durations from Runtime_events, by phase." );
    ( runtime_domain_busy_ratio,
      "Fraction of the last scrape interval each worker domain spent running tasks." );
    ( runtime_events_total,
      "Runtime_events records consumed from the runtime tracing ring." );
    ( model_predicted_rho,
      "Eq. 16 throughput predicted for the currently deployed tree." );
    (model_rho_sched, "Scheduling-side capacity of Eq. 16 (Eqs. 6-11).");
    (model_rho_service, "Service-side capacity of Eq. 16 (Eqs. 12-14).");
    (alive_nodes, "Deployed nodes currently alive (not crashed).");
    (monitor_scrapes_total, "Registry scrapes taken by the monitor.");
    (alerts_series, "Alert-rule state transitions (1 = entered, 0 = left).");
  ]

let help name = match List.assoc_opt name help_table with Some h -> h | None -> ""
