(** The deployment tool: takes a plan (or its XML) and brings the platform
    up — here, instantiated inside the simulator, the way GoDIET launched
    DIET elements over ssh on Grid'5000.

    Launching follows the plan's element order (parents before children)
    with a configurable per-element launch delay, so a deployment's time
    to readiness scales with its size, as it did in practice. *)

open Adept_platform

type launched = {
  middleware : Adept_sim.Middleware.t;
  ready_at : float;  (** Simulated time when the whole hierarchy is up. *)
  launched_elements : int;
}

val launch :
  ?element_delay:float ->
  ?trace:Adept_sim.Trace.t ->
  ?selection:Adept_sim.Middleware.selection ->
  engine:Adept_sim.Engine.t ->
  params:Adept_model.Params.t ->
  platform:Platform.t ->
  Plan.t ->
  launched
(** Deploy the plan's hierarchy on the simulator.  [element_delay]
    (default 0.5 simulated seconds, an ssh-and-start cost per element) is
    consumed sequentially before [ready_at]. *)

val launch_xml :
  ?element_delay:float ->
  ?trace:Adept_sim.Trace.t ->
  ?selection:Adept_sim.Middleware.selection ->
  engine:Adept_sim.Engine.t ->
  params:Adept_model.Params.t ->
  platform:Platform.t ->
  string ->
  (launched, string) result
(** Parse a hierarchy XML (resolving hosts against the platform), build
    the plan and launch it. *)

(** {2 Staged launch with failures}

    Real launches over ssh fail — nodes are down, reservations expire.
    GoDIET launched elements parents-first and a failed element meant
    either retrying or deploying without it.  [launch_staged] models
    that: each element launch takes [element_delay] simulated seconds and
    fails with probability [failure_probability]; failures retry up to
    [max_retries] times; a server that never comes up is dropped from the
    hierarchy (if it remains valid), while a lost agent aborts the
    deployment — its whole subtree would be orphaned. *)

type launch_policy = {
  element_delay : float;  (** Seconds per launch attempt. *)
  failure_probability : float;  (** Per attempt, in [0, 1). *)
  max_retries : int;  (** Additional attempts after the first. *)
}

type staged_outcome = {
  deployment : launched option;  (** [None] when the launch aborted. *)
  attempts : int;  (** Total launch attempts across all elements. *)
  dropped_servers : string list;  (** Element names deployed without. *)
  aborted_on : string option;  (** Agent element that killed the launch. *)
}

val launch_staged :
  ?policy:launch_policy ->
  ?trace:Adept_sim.Trace.t ->
  ?selection:Adept_sim.Middleware.selection ->
  rng:Adept_util.Rng.t ->
  engine:Adept_sim.Engine.t ->
  params:Adept_model.Params.t ->
  platform:Platform.t ->
  Plan.t ->
  (staged_outcome, string) result
(** [Error] only on an invalid policy or when dropping failed servers
    leaves no valid hierarchy; agent failures are reported through
    [aborted_on], not [Error]. *)
