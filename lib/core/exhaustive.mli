(** Brute-force optimal deployment for small platforms.

    Enumerates every valid hierarchy over every subset of the nodes and
    keeps the Eq. 16 maximum.  The count of valid hierarchies explodes
    combinatorially, so this is a test oracle (the heuristic's quality is
    measured against it, as Table 4 measures against the homogeneous
    optimal) rather than a planner; the size guard rejects platforms
    beyond [max_nodes]. *)

open Adept_platform
open Adept_hierarchy

val default_max_nodes : int
(** 8 — a few hundred thousand trees, still fast. *)

val enumerate_subsets : Node.t list -> Tree.t Seq.t
(** All valid hierarchies over every non-empty subset of the nodes. *)

val optimal :
  ?max_nodes:int ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  unit ->
  (Tree.t * float, string) Stdlib.result
(** The maximum-rho hierarchy and its throughput.  Errors on oversized
    platforms ([> max_nodes]) or heterogeneous connectivity. *)

val count : Node.t list -> int
(** Number of hierarchies {!enumerate_subsets} yields (for tests). *)
