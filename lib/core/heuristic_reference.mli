(** The seed implementation of the heterogeneous heuristic, kept verbatim
    as the equivalence oracle for {!Heuristic}.

    {!Heuristic} reimplements the same Algorithm 1 decision procedure on
    top of {!Node_pool} (binary-searched usability boundaries, memoized
    capacities, early-capped server scans).  Those optimizations are
    argued decision-identical — every floating-point comparison sees the
    same values — and the QCheck equivalence property in the test suite
    pins that claim against this module: for random platforms the pooled
    planner must return a bit-identical rho and a structurally equal tree.
    Only the tests call it; no planner strategy selects it.

    Do not optimize this module; its value is being the unoptimized
    original. *)

open Adept_platform
open Adept_hierarchy

type probe = {
  target : float;
  feasible : bool;
  achieved_rho : float;
  nodes_used : int;
}

type result = {
  tree : Tree.t;
  predicted_rho : float;
  probes : probe list;
  demand_met : bool;
}

val plan :
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (result, string) Stdlib.result
