(** Extension studies beyond the paper's evaluation, covering the design
    choices DESIGN.md calls out:

    - {b selection}: how much of the measured throughput depends on DIET's
      best-prediction server selection versus round-robin or random choice;
    - {b bandwidth}: sensitivity of the planned shape and throughput to the
      link bandwidth [B] (where does the star/two-level crossover fall);
    - {b demand}: demand-bounded planning — resources used by the smallest
      deployment meeting a target rate (the paper's "preferred deployment
      is the one using the least resources"). *)

type selection_row = { policy : string; throughput : float }

type bandwidth_row = {
  bandwidth : float;
  rho : float;
  agents : int;
  depth : int;
  max_degree : int;
}

type demand_row = {
  demand : float;
  met : bool;
  rho : float;
  nodes_used : int;
}

type improver_row = {
  start : string;  (** Starting deployment description. *)
  start_rho : float;
  improved_rho : float;
  improver_steps : int;
  heuristic_rho : float;  (** Planning from scratch on the same problem. *)
}

val run_selection : Common.context -> selection_row list
val run_bandwidth : Common.context -> bandwidth_row list
val run_demand : Common.context -> demand_row list

val run_improver : Common.context -> improver_row list
(** The paper's Section 2 claim made runnable: the iterative
    bottleneck-removal of refs [6]/[7] "can only be used to improve the
    throughput of a deployment that has been defined by other means" —
    climb from several starting deployments and compare against planning
    from scratch. *)

type mix_row = {
  planner_basis : string;  (** Which effective Wapp the plan used. *)
  basis_wapp : float;
  plan_nodes : int;
  measured : float;  (** req/s under the true mixed load. *)
}

val run_mix : Common.context -> mix_row list
(** Multi-application planning (the paper's closing future-work item): a
    50/50 mix of cheap and expensive DGEMMs planned through one effective
    cost — arithmetic vs harmonic mean — then measured under the true
    mixed load. *)

val report_mix : Common.context -> mix_row list -> Common.report

val run_wan : Common.context -> (float * string * float) list
(** The future-work heterogeneous-communication study: plan a two-site
    platform across a sweep of WAN bandwidths with
    {!Adept.Multi_cluster.plan}; rows are (wan Mbit/s, chosen arrangement,
    rho). *)

val report_selection : Common.context -> selection_row list -> Common.report
val report_bandwidth : Common.context -> bandwidth_row list -> Common.report
val report_demand : Common.context -> demand_row list -> Common.report
val report_improver : Common.context -> improver_row list -> Common.report
val report_wan : Common.context -> (float * string * float) list -> Common.report

type latency_row = {
  arrival_rate : float;
  predicted_latency : float;  (** Seconds; [infinity] when unstable. *)
  measured_latency : float;
  stable : bool;
}

val run_latency : Common.context -> latency_row list
(** Latency-vs-load validation of {!Adept.Latency} against open-loop
    simulation on the Figure 4 star. *)

val report_latency : Common.context -> latency_row list -> Common.report

type monitoring_row = {
  period : float option;  (** [None] = fresh state ([Best_prediction]). *)
  monitored_throughput : float;
}

val run_monitoring : Common.context -> monitoring_row list
(** Staleness of the footnote-1 monitoring database: measured throughput
    under the [Database] selection across report periods, with fresh
    best-prediction as the reference row. *)

val report_monitoring : Common.context -> monitoring_row list -> Common.report
