(** Iterative deployment improvement — the approach of the authors' prior
    work (the paper's refs [6]/[7]): "in each iteration, mathematical
    models are used to analyze the existing deployment, identify the
    primary bottleneck, and remove the bottleneck by adding resources in
    the appropriate area of the system".

    The paper positions Algorithm 1 against this: the improver needs a
    predefined deployment as input and only climbs locally, while the
    heuristic plans from scratch.  Implementing both makes that comparison
    runnable (the [ablation-improver] experiment). *)

open Adept_platform
open Adept_hierarchy

type bottleneck =
  | Agent_bottleneck of Node.id  (** The Eq. 14 limiting agent. *)
  | Server_prediction_bottleneck of Node.id
  | Service_bottleneck  (** Eq. 15 limits: add servers. *)

type action =
  | Added_server of Node.id * Node.id  (** (server, under agent). *)
  | Split_agent of Node.id * Node.id
      (** (overloaded agent, new agent that took half its children). *)
  | Removed_server of Node.id  (** Weak predictor removed. *)

type step = {
  bottleneck : bottleneck;
  action : action;
  rho_before : float;
  rho_after : float;
}

type result = {
  tree : Tree.t;
  predicted_rho : float;
  steps : step list;  (** In execution order. *)
  converged : bool;  (** False when [max_iterations] stopped the climb. *)
}

val improve :
  ?max_iterations:int ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  Tree.t ->
  (result, string) Stdlib.result
(** Iteratively remove the primary bottleneck of the given deployment:

    - service-limited: attach the strongest unused node as a server under
      the agent with the most Eq. 14 slack;
    - agent-limited: split the limiting agent by promoting an unused node
      to a sibling agent and moving half the children to it (for a root
      bottleneck, the new agent becomes a child of the root);
    - prediction-limited: drop the offending server.

    Each step must strictly improve Eq. 16 rho or the climb stops (local
    optimum).  The input tree must validate against the platform, and
    the platform must have homogeneous connectivity (a single [B]);
    otherwise the result is [Error].
    Default [max_iterations] is the platform size. *)
