(** Semantic conventions: the metric names and label keys every
    instrumented layer shares, so exporters, the report and dashboards
    agree on spelling.  All durations are in seconds, all sizes in
    Mbit, matching the paper's units. *)

(** {1 Label keys} *)

val l_node : string
(** ["node"] — node id as a decimal string. *)

val l_kind : string
(** ["kind"] — message kind: [sched_request] etc. *)

val l_role : string
(** ["role"] — element or endpoint role: [agent] / [server] / [client]. *)

val l_reason : string
(** ["reason"] — controller suppression reason. *)

val l_strategy : string
(** ["strategy"] — planner strategy name. *)

val l_alertname : string
(** ["alertname"] — alert-rule name on [alerts_series] samples. *)

val l_alertstate : string
(** ["alertstate"] — [pending] / [firing] on [alerts_series] samples. *)

val l_severity : string
(** ["severity"] — alert severity: [info] / [warning] / [critical]. *)

val l_step : string
(** ["step"] — staged-rollout transition name on
    [rollout_transitions_total]. *)

val l_method : string
(** ["method"] — planning-server request method: [plan] / [replan] /
    [observe] / [stats] / [trace]. *)

val l_phase : string
(** ["phase"] — OCaml runtime phase name on [runtime_gc_pause_seconds]
    samples: [minor] / [major] / [major_slice] / [stw_leader] / ... *)

val l_domain : string
(** ["domain"] — worker-domain index as a decimal string. *)

val node_label : int -> string * string

val level_label : int -> string * string

(** {1 Middleware} *)

val messages_total : string
val message_mbit_total : string
val agent_request_compute_seconds : string
val agent_reply_compute_seconds : string
val server_prediction_seconds : string
val server_service_seconds : string
val server_backlog_seconds : string
val agent_inflight_requests : string

(** {1 Run-level} *)

val sched_latency_seconds : string
val response_seconds : string
val requests_issued_total : string
val requests_completed_total : string
val requests_lost_total : string
val node_utilization_ratio : string
val run_duration_seconds : string
val run_measured_throughput : string

(** {1 Controller} *)

val controller_replans_total : string
val controller_suppressed_total : string
val controller_migration_seconds : string
val controller_window_throughput : string
val controller_degraded_samples_total : string
val rollout_transitions_total : string

(** {1 Planner} *)

val planner_evaluations_total : string
val planner_plans_total : string

(** {1 Planning server} *)

val serve_requests_total : string
val serve_errors_total : string
val serve_cache_hits_total : string
val serve_cache_misses_total : string
val serve_cache_evictions_total : string
val serve_cache_invalidations_total : string
val serve_coalesced_total : string
val serve_inflight_requests : string
val serve_request_seconds : string
val serve_cache_hit_ratio : string
val serve_cache_eviction_age_seconds : string
val serve_traces_sampled_total : string
val serve_scrapes_total : string
val serve_journal_records_total : string
val serve_journal_bytes_total : string
val serve_otlp_exports_total : string

(** {1 OCaml runtime (Runtime_events)} *)

val runtime_gc_pause_seconds : string
val runtime_domain_busy_ratio : string
val runtime_events_total : string

(** {1 Monitor} *)

val model_predicted_rho : string
val model_rho_sched : string
val model_rho_service : string
val alive_nodes : string
val monitor_scrapes_total : string

val alerts_series : string
(** ["ALERTS"] — the Prometheus convention for alert-state series. *)

val help : string -> string
(** One-line HELP text for a known metric name; [""] otherwise. *)
