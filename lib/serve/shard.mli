(** The heuristic plan as the server runs it.

    Algorithm 1's bisection is strictly sequential — each probe's target
    depends on every earlier outcome — so a served heuristic plan is
    exactly the call the batch CLI makes: one
    [Planner.run Heuristic], on whichever worker domain picked up the
    request.  {!Domain_pool} gives parallelism {e across} requests, not
    within one.

    This module and its {!diag} record only remain because the
    end-to-end benchmark ([bench/e2e]) compiles against them and times
    this call as its [shard.*] metrics.  ROADMAP's benchmark follow-up
    renames the module and drops those metrics. *)

open Adept_platform

type diag = {
  speculated : int;  (** Always 0: nothing is computed ahead. *)
  inline_probes : int;  (** The plan's evaluations (0 on error). *)
}

val plan :
  ?pool:Domain_pool.t ->
  ?prof:Prof.t ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (Adept.Planner.plan, Adept.Error.t) Stdlib.result * diag
(** [Planner.run Heuristic], timed as one ["replay"] stage sample in
    [prof].  [pool] is accepted and ignored, so callers written against
    the former sharded planner still compile. *)
