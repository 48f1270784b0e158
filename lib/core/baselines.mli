(** Reference deployments the paper compares against (Section 5.3), plus a
    random generator for property tests.

    All constructors take the candidate nodes in priority order (strongest
    first is the sensible call, e.g. [Platform.sorted_by_power_desc]) and
    use a prefix of them. *)

open Adept_platform
open Adept_hierarchy

val star : Node.t list -> (Tree.t, string) result
(** "One node acts as an agent and all the rest are directly connected to
    the agent node."  Fails with fewer than two nodes. *)

val balanced : agents:int -> Node.t list -> (Tree.t, string) result
(** The paper's balanced graph: one top agent connected to [agents]
    middle agents, the remaining nodes distributed as evenly as possible
    as servers beneath them (the paper's instance: 14 agents of 14 servers
    with one agent of 3).  Fails unless every middle agent can receive at
    least two servers ([n >= 1 + agents + 2*agents]) and [agents >= 1]. *)

val dary : degree:int -> Node.t list -> (Tree.t, string) result
(** Complete spanning d-ary tree (the optimal shape on homogeneous
    clusters per Chouhan et al. 2006): heap-ordered BFS tree where
    internal nodes are agents with [degree] children and leaves are
    servers.  [degree = 1] degenerates to one agent and one server.
    Non-root agents left with a single child by the rounding at the
    frontier are demoted to servers (their child re-attached to the
    grandparent), so the result always validates. *)

val random : rng:Adept_util.Rng.t -> Node.t list -> (Tree.t, string) result
(** A uniformly-shaped valid hierarchy over a random non-empty subset of
    the nodes; for property tests. *)
