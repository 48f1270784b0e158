(** Unified planning interface over every strategy in the library.

    This is the front door a deployment tool (the paper's planned ADePT)
    calls: pick a strategy, a platform, a workload, a demand — get a
    validated hierarchy with its predicted throughput. *)

open Adept_platform
open Adept_hierarchy

type strategy =
  | Heuristic  (** The paper's Algorithm 1 (heterogeneous heuristic). *)
  | Star  (** One agent, every other node a server. *)
  | Balanced of int  (** The paper's balanced graph with this many middle agents. *)
  | Dary of int  (** Complete spanning d-ary tree of fixed degree. *)
  | Homogeneous_optimal  (** Degree search over d-ary trees (ref. [10]). *)
  | Exhaustive  (** Brute force; tiny platforms only. *)
  | Multi_cluster  (** Per-cluster planning with WAN-aware scoring. *)
  | Improved of strategy
      (** Plan with the inner strategy, then climb with the iterative
          bottleneck remover of refs [6]/[7]. *)

val strategy_name : strategy -> string
val strategy_of_string : string -> (strategy, Error.t) Stdlib.result
(** Parse ["heuristic"], ["star"], ["balanced:<k>"],
    ["dary:<d>"], ["homogeneous"], ["exhaustive"], ["multi-cluster"], and
    ["improved:<strategy>"].  Unknown names are [Error.Invalid_input]. *)

type plan = {
  strategy : strategy;
  tree : Tree.t;
  predicted_rho : float;  (** Eq. 16 model throughput. *)
  demand_met : bool;  (** Always false under unbounded demand. *)
  nodes_used : int;
  nodes_available : int;
  evaluations : int;
      (** Candidate hierarchies the strategy evaluated: bisection probes
          for the heuristic, degrees tried for the homogeneous search,
          enumerated trees for [Exhaustive], inner evaluations plus climb
          steps for [Improved]; 1 for the fixed-shape baselines.  Feeds
          the [adept_planner_evaluations_total] metric. *)
}

val run :
  strategy ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (plan, Error.t) Stdlib.result
(** Plan and validate.  Every returned tree passes
    [Validate.check ~platform]; strategies that cannot satisfy the
    platform (e.g. [Balanced] with too few nodes) return
    [Error.No_feasible_hierarchy].
    Baseline strategies receive nodes strongest-first.  Predicted
    throughput is {!Evaluate.rho_hetero}, so baselines and
    [Multi_cluster] also score correctly on multi-site platforms
    (strategies whose algorithm needs a single bandwidth — the heuristic,
    the degree search, [Improved] — still error there). *)

type replan_result = {
  replanned : plan;  (** New plan over the survivors, on original node ids. *)
  failed : Node.id list;  (** Sorted, deduplicated. *)
  survivors : int;
  rho_before : float;
      (** Predicted throughput before the failures: the [?reference]
          hierarchy's, or a fresh full-platform plan's. *)
  rho_after : float;  (** The replanned hierarchy's predicted throughput. *)
  rho_drop : float;
      (** Relative throughput hit, [1 - after/before] clamped to [>= 0]. *)
}

val replan :
  strategy ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  failed:Node.id list ->
  ?reference:Tree.t ->
  unit ->
  (replan_result, Error.t) Stdlib.result
(** Rebuild the hierarchy after [failed] nodes crash: plan with [strategy]
    on the surviving sub-platform (same names, powers, clusters and link
    structure, node ids renumbered internally and mapped back), validate
    on the original platform, and report the predicted throughput hit
    against [?reference] (default: what [strategy] achieves with every
    node up).  Never raises on degenerate remnants: an empty or
    off-platform [failed] list is [Error.Invalid_input], zero survivors is
    [Error.No_survivors], a single survivor is
    [Error.Insufficient_survivors] (a hierarchy needs an agent and a
    server), and a remnant the strategy cannot plan is
    [Error.No_feasible_hierarchy] — the distinctions an online controller
    needs to decide between giving up and waiting for recoveries. *)

val pp_replan : Format.formatter -> replan_result -> unit

type replan_mode =
  | Incremental  (** The previous hierarchy was patched in place. *)
  | Full of string
      (** Replanned from scratch; the payload says why the patch was not
          good enough (e.g. ["root-died"], ["rho-below-bound"]). *)

val replan_mode_name : replan_mode -> string
(** ["incremental"] or ["full"] — the [replan-mode] breadcrumb value. *)

val replan_fallback_reason : replan_mode -> string option
(** The [Full] payload, [None] for [Incremental]. *)

val replan_incremental :
  strategy ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  failed:Node.id list ->
  ?recovered:Node.id list ->
  previous:Tree.t ->
  ?slack:float ->
  unit ->
  (replan_result * replan_mode, Error.t) Stdlib.result
(** Patch [previous] instead of replanning from scratch when the patch is
    good enough: dead servers are dropped, a dead agent's position is
    taken by its strongest surviving child (an agent child absorbs the
    orphaned siblings; a server child is promoted over them), and
    untouched subtrees are reused by structural sharing.  The patched
    hierarchy is accepted — [Incremental] — when its predicted throughput
    (Eq. 16) is at least [(1 - slack)] of the survivor-platform ceiling
    the heuristic bisects under.  That ceiling is not a true upper
    bound, so an accepted patch can trail a from-scratch replan by more
    than [slack]: at DGEMM 100 it did on 8 of 500 random seeds
    (ROADMAP.md, "Bounds that hold").  Otherwise the call falls back to
    {!replan} with [previous] as the reference and reports
    [Full reason].  Fallback reasons: ["root-died"],
    ["no-survivors-in-tree"], ["invalid-patch"],
    ["non-uniform-bandwidth"], ["rho-below-bound"].

    [recovered] names nodes that returned to service since [previous]
    was planned (the write-off/recovery set an online controller
    tracks): each one absent from [previous] is grafted back into the
    patched hierarchy as a server under the least-loaded agent, kept
    only when the graft does not lower the patched tree's Eq. 16
    throughput — re-admission without waiting for the full-replan path
    (which re-admits implicitly by planning over every survivor).  A
    patch the deaths reduced to a bare root (no servers left, hence no
    throughput to compare) is rescued by the first recovery, grafted
    unconditionally before the patch is judged.  Ids already serving in
    [previous] are ignored; an id in both [failed] and [recovered] is
    [Error.Invalid_input].

    Unlike {!replan}, an empty [failed] list is not an error: with no
    recoveries the result is the input plan verbatim (the tree
    physically shared, zero evaluations, zero drop) — the determinism
    anchor the property tests pin; with recoveries the graft runs as a
    pure improvement step (no slack gate — nothing was lost) and still
    reports [Incremental].  Off-platform ids, zero survivors and a
    single survivor are the same typed errors as {!replan}.  [slack]
    defaults to [0.15]; it must lie in [\[0, 1)]. *)

val compare_strategies :
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  strategy list ->
  (strategy * (plan, Error.t) Stdlib.result) list
(** Run several strategies on the same problem (the Section 5.3
    experiment shape). *)

val pp_plan : Format.formatter -> plan -> unit
