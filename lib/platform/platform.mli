(** A deployment platform: the set of candidate nodes plus the interconnect.

    This is the input to every planner and to the simulator.  Node ids are
    dense: node [i] of an [n]-node platform has [Node.id = i]. *)

type t

val create : ?link:Link.t -> Node.t list -> t
(** [create nodes] builds a platform.  The default link is homogeneous
    1000 Mbit/s with zero latency.
    @raise Invalid_argument if the node list is empty, if ids are not
    exactly [0 .. n-1], or if two nodes share a name. *)

val of_powers : ?link:Link.t -> ?cluster:string -> float list -> t
(** Convenience: node [i] is named ["node-<i>"] with the given power. *)

val size : t -> int
val nodes : t -> Node.t list
val node : t -> Node.id -> Node.t
(** @raise Invalid_argument on an out-of-range id. *)

val link : t -> Link.t

val bandwidth : t -> Node.id -> Node.id -> float
(** Link bandwidth between two nodes, Mbit/s. *)

val total_power : t -> float
(** Sum of node powers, MFlop/s. *)

val is_homogeneous_compute : t -> bool
(** True when all nodes have equal power (Table 4's setting). *)

val sorted_by_power_desc : t -> Node.t list
(** Deterministic order: decreasing power, ties by id. *)

val subset : t -> Node.id list -> Node.t list
(** Resolve ids to nodes, preserving order.
    @raise Invalid_argument on out-of-range ids or duplicates. *)

val pp_summary : Format.formatter -> t -> unit
