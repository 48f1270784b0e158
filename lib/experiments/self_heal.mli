(** Extension experiment: self-healing redeployment policies.

    A two-level Lyon hierarchy (root agent, two middle agents, three
    servers each) loses one middle agent permanently — orphaning its
    server subtree, a loss the middleware's failover can prune but never
    repair — while transient crashes arrive on the remaining non-root
    nodes at a swept Poisson rate.  Each (rate, policy) point runs the
    same scenario under a {!Adept_sim.Controller} with policy [Off]
    (monitor only), [Eager] (replan on the first degraded sample, no gain
    guard) or [Hysteresis] (hold time, cooldown and minimum predicted
    gain), and reports completed-request throughput, migration losses,
    enacted replans and degraded time.

    The headline result: at a nonzero transient rate, hysteresis beats
    [Off] (which never reattaches the orphaned subtree) and [Eager]
    (which burns replans and migration pauses on crashes that would have
    recovered on their own).

    The experiment also runs the canonical staged-rollout demo (see
    {!run_rollout}) in both flavors under both enactment modes and
    reports a direct-vs-canary comparison: deployment time, error rate
    during the swap, and rollback time. *)

type point = {
  rate : float;  (** Transient crashes per node per simulated second. *)
  policy : Adept_sim.Controller.policy;
  throughput : float;  (** Completions/s in the measurement window. *)
  completed : int;
  lost : int;  (** All lost requests, including migration losses. *)
  migration_lost : int;  (** Requests dropped inside migration windows. *)
  replans : int;  (** Enacted redeployments. *)
  degraded_seconds : float;
}

type rollout_flavor =
  | Drift  (** A second node dies mid-bake: the watched alert is still
               firing at the deadline and the canary rolls back. *)
  | Healthy  (** Nothing else goes wrong: the drift resolves against the
                 blended forecast and the canary promotes. *)

val rollout_flavor_name : rollout_flavor -> string

val rollout_flavor_of_string : string -> (rollout_flavor, Adept.Error.t) result

type rollout_point = {
  r_flavor : rollout_flavor;
  r_mode : Adept_sim.Rollout.mode;
  r_outcome : string;  (** [promoted] / [rolled-back] / [direct] / [none]. *)
  r_deploy_time : float option;
      (** Trigger to final swap, seconds; [None] when the plan never
          fully deployed (rolled back, or no replan happened). *)
  r_swap_error_rate : float;
      (** Requests dropped in migration pauses over requests issued. *)
  r_rollback_time : float option;
      (** Reverse-migration window, seconds; [None] unless rolled back. *)
  r_throughput : float;
  r_alerts : string list;  (** Citations across the decision trail. *)
}

type result = {
  points : point list;
      (** Rate-major, policy [Off]/[Eager]/[Hysteresis] within each rate. *)
  rollout_points : rollout_point list;
      (** Flavor-major ([Healthy] then [Drift]), [Direct] then [Canary]
          within each flavor. *)
  servers : int;
  clients : int;
  mttr : float;  (** Mean transient repair time, seconds. *)
  crash_at : float;  (** When the middle agent is lost for good. *)
  horizon : float;
}

val run_rollout :
  ?mode:Adept_sim.Rollout.mode ->
  ?canary_fraction:float ->
  ?bake_window:float ->
  flavor:rollout_flavor ->
  unit ->
  Adept_sim.Scenario.run_result * Adept_sim.Monitor.t * Adept_hierarchy.Tree.t
(** The canonical staged-rollout demo, shared byte-for-byte by the
    [adept rollout] CLI command, the golden-pinned timeline test and
    this experiment: ten homogeneous 1000 Mbit nodes at 730 MFlop/s, a
    d-ary-3 hierarchy, agent 1 lost at t=1.5s, a model-drift monitor
    (0.25 s scrapes, 0.5 s hold) and a hysteresis controller (0.5 s
    samples, 2 s window, threshold 0.75, hold 1 s, cooldown 2 s) staging
    enactments per the rollout config.  [Drift] additionally loses node
    2 at t=5.2s — inside the default bake window — so the drift never
    resolves.  It runs under a fixed workload (16 closed clients, 0.5 s
    warmup, 12 s measured, seed 42; defaults: [Canary] mode with
    {!Adept_sim.Rollout.config}'s default fraction and bake window).
    The returned monitor holds the alert timeline that drove
    the rollout's verdict; the tree is the initial deployment (panel
    selectors for a dashboard). *)

val run : Common.context -> result

val report : Common.context -> result -> Common.report
