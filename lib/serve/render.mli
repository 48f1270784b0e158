(** Request execution and text rendering, shared by both front ends.

    The server answers [plan]/[replan]/[observe] requests here, and the
    batch [adept plan]/[adept replan]/[adept observe] subcommands build
    the same {!Protocol} request records and execute them here too, so
    a served answer is {e byte-for-byte} the batch output by
    construction (the CI smoke job also diffs the two end to end).  All
    planning uses the calibrated {!Adept_model.Params.diet_lyon}
    parameters. *)

open Adept_platform

val params : Adept_model.Params.t
(** The parameter set every request is planned under. *)

val platform_of_spec : Protocol.platform_spec -> (Platform.t, string) result
(** Build the platform a request describes: the synthetic generators
    (fixed load fraction and levels), or an inline catalog parse.
    Generator preconditions and catalog errors surface as [Error]. *)

val wapp_of_dgemm : int -> (float, string) result
val demand_of : float option -> Adept_model.Demand.t
val strategy_of_string : string -> (Adept.Planner.strategy, string) result

val plan_text : platform:Platform.t -> wapp:float -> Adept.Planner.plan -> string
(** The [adept plan] stdout for this plan (summary + model report, or
    the heterogeneous-links rho line). *)

val run_plan :
  ?pool:Domain_pool.t ->
  ?shards:int ->
  ?prof:Prof.t ->
  Adept.Planner.strategy ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (Adept.Planner.plan, string) result
(** Plan, sharding the heuristic across [pool] when given (bit-identical
    by {!Shard.plan}'s replay); other strategies always run inline. *)

type planned = {
  platform : Platform.t;
  wapp : float;
  strategy : Adept.Planner.strategy;
  plan : Adept.Planner.plan;
}
(** A plan request resolved and planned: what {!plan} renders, and what
    the batch CLI exports and simulates. *)

val planned :
  ?pool:Domain_pool.t ->
  ?shards:int ->
  ?prof:Prof.t ->
  Protocol.plan_params ->
  (planned, string) result
(** Build the platform, workload and strategy of a plan request and
    plan it.  [use_cache] is not consulted: caching is the server's. *)

val plan :
  ?pool:Domain_pool.t ->
  ?shards:int ->
  ?prof:Prof.t ->
  Protocol.plan_params ->
  (string * float * int, string) result
(** Execute a plan request: [(text, predicted_rho, nodes_used)].
    [prof] collects wall-clock shard/replay/render stage samples;
    passing it never changes the produced bytes. *)

val replan : Protocol.replan_params -> (string * float, string) result
(** Execute a replan request: [(text, rho_after)].  An empty failed list
    is an error. *)

type observed = {
  text : string;
  throughput : float;  (** measured *)
  registry : Adept_obs.Registry.t;  (** every metric the run recorded *)
  report : Adept_obs.Report.t;  (** model-vs-measured, rendered in [text] *)
}

val observed : Protocol.observe_params -> (observed, string) result
(** Run an observe request's instrumented simulation — deterministic in
    the request's seed — keeping the registry and report behind the
    text for the batch CLI's exports and deviation gate. *)

val observe : Protocol.observe_params -> (string * float, string) result
(** Execute an observe request: [(text, measured throughput)]. *)
