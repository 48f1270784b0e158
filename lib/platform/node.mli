(** Computational resources.

    A node is the unit the planner assigns middleware elements to.  Per the
    paper's platform model, a node is characterised by its computing power
    [w] in MFlop/s (measured with a Linpack mini-benchmark in the paper);
    connectivity is homogeneous and lives on the {!Platform.t}. *)

type id = int
(** Dense, zero-based node identifiers; they index adjacency matrices. *)

type t = private {
  id : id;
  name : string;
  power : float;  (** [w], MFlop/s; strictly positive. *)
  cluster : string;  (** Site/cluster label, e.g. ["orsay"]. *)
}

val make : id:id -> name:string -> power:float -> ?cluster:string -> unit -> t
(** @raise Invalid_argument if [power <= 0], [id < 0] or [name = ""]. *)

val id : t -> id
val name : t -> string
val power : t -> float
val cluster : t -> string

val with_power : t -> float -> t
(** Same node with a different measured power (used by background-load
    heterogenisation).  @raise Invalid_argument if the power is not
    positive. *)

val compare_by_power_desc : t -> t -> int
(** Sort key: decreasing power, ties by increasing id (deterministic). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
