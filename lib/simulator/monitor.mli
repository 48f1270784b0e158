(** Continuous monitoring: periodic scraping and model-drift alerting.

    The planner promises a steady-state operating point — Eq. 16's
    [rho], backed by the per-element costs of Eqs. 1–5 — and the rest of
    the observability stack only checks it after the run.  The monitor
    watches the run {e unfold}: a simulated-time probe fires every
    [interval] seconds, refreshes the model gauges
    ([adept_model_predicted_rho] / [_rho_sched] / [_rho_service],
    [adept_alive_nodes]), scrapes the registry into a bounded
    {!Adept_obs.Timeseries} store and advances an {!Adept_obs.Alert}
    engine over it.

    {!model_rules} derives the built-in rule set from the model itself:
    - [model-drift] — windowed measured throughput vs the Eq. 16
      prediction for the {e currently deployed} tree, beyond a relative
      tolerance (critical; the controller cites it when it replans);
    - [cost-drift/node-N/<component>] — each element's measured compute
      mean (Eqs. 1–5 histograms) vs its {!Adept.Evaluate.element_costs}
      prediction;
    - [sched-headroom] — the relative distance between the two sides of
      [rho = min(rho_sched, rho_service)] (Eq. 16): fires when the
      margin shrinks below [headroom], i.e. the binding side is about to
      flip.

    Observation-only invariant: probes read simulator state and write
    only registry/time-series/alert state, never schedule work that
    mutates the simulation — attaching a monitor leaves the run
    bit-identical (regression-tested), and [interval = 0] disables
    probing entirely. *)

open Adept_platform
open Adept_hierarchy
module Params = Adept_model.Params

type t

(** What the model predicts for the hierarchy currently in charge,
    refreshed at every probe. *)
type signals = {
  predicted_rho : float;  (** Eq. 16 for the deployed tree. *)
  rho_sched : float option;  (** Scheduling side; [None] when the
                                 platform's links are heterogeneous. *)
  rho_service : float option;  (** Service side; ditto. *)
  alive : int;  (** Live deployed elements. *)
}

type provider = unit -> signals

val create :
  ?interval:float ->
  ?retention:float ->
  ?capacity:int ->
  ?tracer:Adept_obs.Tracer.t ->
  ?selectors:Adept_obs.Rule.selector list ->
  Adept_obs.Rule.t list ->
  (t, Adept.Error.t) result
(** [interval] defaults to 0.25 s; 0 disables the monitor (attach
    becomes a no-op).  [retention] defaults to twice the longest rule
    window plus ten intervals (and is an error when shorter than the
    longest rule window).  [selectors] add dashboard-only series beyond
    what the rules read; the model-gauge and run-counter selectors are
    always included.  Duplicate rule names are an error. *)

val timeseries : t -> Adept_obs.Timeseries.t

val alerts : t -> Adept_obs.Alert.t

val scrapes : t -> int

val attach :
  t ->
  engine:Engine.t ->
  registry:Adept_obs.Registry.t ->
  ?provider:provider ->
  horizon:float ->
  unit ->
  unit
(** Arm the probe chain: ticks at [interval], [2*interval], ... up to
    [horizon].  Each tick sets the model gauges from [provider] (when
    given), bumps [adept_monitor_scrapes_total], scrapes the registry,
    and evaluates the alert rules.  No-op when [interval = 0]. *)

val signals_of :
  params:Params.t ->
  platform:Platform.t ->
  wapp:float ->
  tree:Tree.t ->
  middleware:Middleware.t ->
  ?controller:Controller.t ->
  unit ->
  signals
(** The standard provider body: predictions for the controller's
    current tree (falling back to [tree]/[middleware] without one),
    [rho_sched]/[rho_service] from {!Adept.Evaluate.bottleneck_element}
    when the platform is link-homogeneous, liveness from
    {!Middleware.alive_count}. *)

val model_rules :
  ?tolerance:float ->
  ?hold:float ->
  ?cost_tolerance:float ->
  ?headroom:float ->
  ?window:float ->
  params:Params.t ->
  wapp:float ->
  Tree.t ->
  Adept_obs.Rule.t list
(** The built-in rules for a deployment (defaults: drift [tolerance]
    0.25 held for [hold] 1 s, [cost_tolerance] 0.5, [headroom] 0.1,
    measurement [window] 2 s).  Cost-drift rules are derived from
    {!Adept.Evaluate.element_costs} of the {e initial} tree — a
    replanned tree keeps the original per-node expectations, which is
    exactly the drift one wants surfaced. *)

val default_selectors : Tree.t -> Adept_obs.Rule.selector list
(** Dashboard series worth scraping for any run: request counters,
    model gauges, liveness, and per-level agent in-flight gauges. *)

val default_panels : Tree.t -> window:float -> Adept_obs.Dashboard.panel list
(** The standard dashboard: measured-vs-predicted rho sparkline, the
    two Eq. 16 sides, per-level in-flight, losses and liveness. *)
