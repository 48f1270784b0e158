(** Shape statistics of a hierarchy, used in experiment reports (the paper
    describes deployments by degree and per-level composition, e.g. "top
    agent connected with 9 agents and each agent again connected to 9
    agents"). *)

type t = {
  nodes : int;
  agents : int;
  servers : int;
  depth : int;
  max_degree : int;
  min_agent_degree : int;
  mean_agent_degree : float;
  level_sizes : int list;  (** Node count per level, root level first. *)
}

val of_tree : Tree.t -> t

val degree_histogram : Tree.t -> (int * int) list
(** [(degree, agent count)] pairs, ascending by degree. *)

val describe : Tree.t -> string
(** A one-line description like
    ["156 nodes: 11 agents (depth 2, degrees 5..9), 145 servers"]. *)
