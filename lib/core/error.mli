(** Typed errors for the planning / replanning / self-healing pipeline.

    PR 1 threaded [(_, string) result] through {!Planner} and the fault
    machinery, which left callers pattern-matching on prose.  The online
    redeployment controller ({!Adept_sim.Controller}) needs to react
    differently to "all nodes are dead" (give up quietly), "the survivors
    cannot host any hierarchy" (keep monitoring, a recovery may fix it)
    and "the inputs are malformed" (a programming error worth surfacing) —
    so the pipeline speaks this plain variant instead.  Constructors are
    ordinary (not polymorphic) variants so exhaustive matches stay checked
    as the set grows. *)

type t =
  | Invalid_input of string
      (** Malformed arguments: unknown strategy names, out-of-range
          parameters, empty failure lists.  A caller bug, not a platform
          condition. *)
  | No_survivors
      (** A replan was asked for but zero nodes survive. *)
  | Insufficient_survivors of { survivors : int; required : int }
      (** Nodes survive, but fewer than the minimum any hierarchy needs
          (one agent plus one server). *)
  | No_feasible_hierarchy of { strategy : string; reason : string }
      (** The strategy ran and failed: the platform (or remnant) cannot
          host what it builds, e.g. [Balanced 5] over 3 nodes. *)
  | Invalid_hierarchy of { context : string; reason : string }
      (** A produced tree failed {!Adept_hierarchy.Validate.check} — an
          internal invariant violation. *)

val invalid_input : ('a, unit, string, t) format4 -> 'a
(** [invalid_input fmt ...] builds an {!Invalid_input} printf-style. *)

val no_feasible : strategy:string -> ('a, unit, string, t) format4 -> 'a

val invalid_hierarchy : context:string -> ('a, unit, string, t) format4 -> 'a

val to_string : t -> string
