(** Alert evaluation: a Prometheus-style state machine per rule.

    Each {!eval} tick evaluates every rule's condition against the
    backing {!Timeseries} store.  A rule is [Inactive] until its
    condition first holds, [Pending] while it has held for less than
    the rule's [for_duration], and [Firing] once it has held long
    enough; the condition going false (or becoming unevaluable) from
    [Firing] resolves the alert, from [Pending] it silently resets.

    Every [Pending]/[Firing]/resolved edge is appended to a
    chronological transition log — the exported alert timeline — and,
    when a {!Tracer} is attached, mirrored as [alert-pending] /
    [alert-fired] / [alert-resolved] events so alert history lands in
    the same stream as crashes and replans. *)

type state = Inactive | Pending of float | Firing of float
(** [Pending since] / [Firing since] carry the transition instant. *)

type edge = To_pending | To_firing | To_resolved

type transition = {
  at : float;
  rule : Rule.t;
  edge : edge;
  value : float;  (** lhs at the transition; [nan] if unevaluable *)
}

type t

val create :
  ?tracer:Tracer.t -> timeseries:Timeseries.t -> Rule.t list ->
  (t, string) result
(** Validates the rule set: duplicate rule names are an error, as is a
    rule whose {!Rule.max_window} exceeds the store's retention (its
    windows could silently never fill). *)

val timeseries : t -> Timeseries.t

val eval : t -> now:float -> unit
(** Advance every rule's state machine to simulated time [now].
    Call after each {!Timeseries.scrape}. *)

val state : t -> string -> state option
(** Current state of the named rule. *)

val states : t -> (Rule.t * state) list
(** All rules with their current state, in rule order. *)

val firing_names : t -> string list
(** Names of currently firing rules, in rule order — the controller's
    replan-record breadcrumb. *)

val transitions : t -> transition list
(** Chronological transition log (the alert timeline). *)

val firing_intervals : t -> (Rule.t * float * float option) list
(** Closed and still-open [(rule, fired_at, resolved_at)] intervals in
    chronological order of firing — dashboard alert bands. *)
