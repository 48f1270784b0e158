(** Adjacency-matrix view of a hierarchy (the paper's [plot_hierarchy]).

    The heuristic's output is "presented in the form of an adjacency
    matrix" before XML emission.  The matrix is indexed by platform node
    id; [m.(p).(c)] is true when node [p] is the agent parent of node
    [c]. *)

open Adept_platform

type t = bool array array

val of_tree : n:int -> Tree.t -> t
(** [of_tree ~n tree] builds the [n x n] matrix.  @raise Invalid_argument
    when a node id is outside [0 .. n-1]. *)

val to_tree : Platform.t -> t -> (Tree.t, string) result
(** Reconstruct the hierarchy.  Nodes with children become agents, used
    leaves become servers; children are attached in increasing id order.
    Errors: no root (no used node without parent), several roots, a node
    with several parents, or a cycle. *)

val parents : t -> int option array
(** [parents m] maps each node id to its parent id, [None] for unused
    nodes and the root.  @raise Invalid_argument if some node has two
    parents. *)

val used : t -> bool array
(** Nodes that appear in the hierarchy (as parent or child). *)

val edge_count : t -> int
