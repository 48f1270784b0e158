(** Structural validation of hierarchies against the paper's rules:

    - the root is an agent with one or more children;
    - every non-root agent has two or more children;
    - servers are leaves (guaranteed by the type) with exactly one parent,
      i.e. no node appears twice;
    - resources are not shared between agents and servers (also a
      consequence of no-duplicates);
    - when a platform is supplied, every node must belong to it (same id,
      name and power). *)

open Adept_platform

type error =
  | Root_is_server of Node.t
  | Root_has_no_children of Node.t
  | Undersized_agent of Node.t * int
      (** Non-root agent with fewer than two children. *)
  | Duplicate_node of Node.t
  | Unknown_node of Node.t  (** Not on the supplied platform. *)

val error_to_string : error -> string

val errors : ?platform:Platform.t -> Tree.t -> error list
(** All violations, in discovery order (root problems first). *)

val check : ?platform:Platform.t -> Tree.t -> (unit, error list) result
(** [Ok ()] when {!errors} is empty. *)

val is_valid : ?platform:Platform.t -> Tree.t -> bool
