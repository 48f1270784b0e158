(** Persistent sorted view of a platform's nodes for the planner hot path.

    {!Heuristic.plan} probes dozens of candidate targets by bisection;
    the seed implementation rescanned the node list for every probe
    (service-power folds for the upper bounds, linear usability and
    capacity scans inside every [min_servers]/[try_j] step), which is
    what made datacenter-scale platforms unreachable.  The pool keeps the
    {!Sched_power.sort_nodes} order as arrays with:

    - per-node Eq. 14 server scheduling power (usability tests and the
      [hi_predict] bound become O(1));
    - prefix sums of the Eq. 15 service terms over the rest, anchored at
      index 1 and accumulated in exactly the reference fold order, so the
      [hi_service] bound is an O(1) lookup with bit-identical rounding;
    - power classes: runs of equal-power nodes, bucketing the platforms
      the generators actually produce (a handful of discrete load
      levels), so capacity lookups memoize per class instead of per node.

    Pool order is power order: the sort key is FP-monotone in power and
    ties break on {!Node.compare_by_power_desc}, so {!nodes} is strictly
    in that comparator's order and a node's rank orders it by power
    (agent lightening reads its power-sorted role arrays off ranks).

    Every accelerated query is {e decision-identical} to the reference
    scan it replaces: the same floats reach the same comparisons (see the
    monotonicity notes inline and DESIGN.md "Planner internals"); the
    QCheck equivalence property enforces this against
    {!Heuristic_reference}.  The service scans run allocation-free over a
    precomputed [power /. wapp] array, adding the same quotients in the
    same order as the reference. *)

open Adept_platform

type t

val create : Adept_model.Params.t -> bandwidth:float -> wapp:float -> Node.t list -> t
(** Sort once, precompute the arrays.  O(n log n). *)

val size : t -> int

val node : t -> int -> Node.t
(** The i-th node in scheduling-power order (0 = most agent-worthy). *)

val nodes : t -> Node.t array
(** The backing sorted array, strictly in {!Node.compare_by_power_desc}
    order — callers must not mutate it. *)

val bandwidth : t -> float
val wapp : t -> float

val server_sched : t -> int -> float
(** Eq. 14 server scheduling power of [node t i], precomputed. *)

val class_of : t -> int -> int
(** Power class of the i-th node; equal power ⇔ equal class.  Classes
    are numbered 0.. in sorted order. *)

val class_count : t -> int

val hi_sched : t -> float
(** Scheduling-power bound: the strongest node as an agent with one
    child. *)

val hi_predict : t -> float
(** Max server scheduling power over the rest (requires [size >= 2]);
    bit-identical to the reference [Float.max] fold. *)

val hi_service : t -> float
(** Eq. 15 service power of the whole rest (requires [size >= 2]), read
    from the prefix sums; bit-identical to
    [Service_power.of_servers] on the rest list. *)

val usable_until : t -> target:float -> int
(** First sorted index whose server scheduling power is below [target]
    ([size t] if none): the usability boundary [min_servers] scans up
    to.  Binary search; exact because the predicate is monotone along
    the sorted order. *)

type scan =
  | Servers of int
      (** Length of the smallest usable prefix reaching [target]: the
          servers are [node t from .. node t (from + count - 1)] — the
          scan consumes every index below the usable boundary, so the
          count alone identifies them and no list is allocated on the
          probe hot path. *)
  | Overflow  (** The prefix outgrew [cap] before reaching [target]. *)
  | Infeasible  (** Even every usable node from [from] falls short. *)

val min_servers :
  t -> target:float -> usable:int -> from:int -> cap:int -> scan
(** The reference [min_servers] with two decision-identical shortcuts:
    the scan stops at the [usable] boundary (pass [usable_until]'s
    result) and bails out as [Overflow] once more than [cap] servers
    have been taken — callers reject longer-than-[cap] answers and
    [Infeasible] identically, so the early exit changes no decision. *)

val feasible : t -> target:float -> usable:int -> bool
(** Whether [min_servers ~from:1 ~cap:max_int] would find a prefix — the
    global infeasibility pre-check: when false, every [min_servers] from
    any index fails too (a later scan's usable set is pointwise weaker at
    every count), so the whole level-by-level build returns [None]. *)
