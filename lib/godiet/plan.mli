(** Deployment plans: the artefact a planner hands to the deployment tool.

    A plan binds a hierarchy to the platform it was computed for, with the
    element naming GoDIET needs (master agent / agents / servers get
    distinct names in the launch order). *)

open Adept_platform
open Adept_hierarchy

type element_kind = Master_agent | Agent | Server

type element = {
  kind : element_kind;
  element_name : string;  (** e.g. ["MA"], ["A-1"], ["SeD-3"]. *)
  host : Node.t;
  parent_name : string option;  (** [None] only for the master agent. *)
}

type t = private {
  tree : Tree.t;
  elements : element list;  (** Launch order: parents before children. *)
}

val of_tree : Tree.t -> (t, string) result
(** Name every element and order the launch sequence; fails if the
    hierarchy does not validate structurally. *)

val master : t -> element
val agents : t -> element list
(** Including the master agent. *)

val servers : t -> element list

val find : t -> string -> element option
(** Lookup by element name. *)

val launch_order : t -> element list
(** Parents strictly before children (preorder). *)
