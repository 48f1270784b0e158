(** Staged-deployment state machine: canary generations, bake windows,
    promotion and rollback.

    The planner computes a hierarchy and the {!Controller} decides when a
    better one is worth enacting; this module decides {e how} the swap
    happens.  [Off] is the legacy behaviour — the whole client population
    pauses for the migration window and the new generation takes over in
    one shot, with no rollout machinery instantiated at all.  [Direct] is
    behaviourally identical to [Off] (bit-identical simulation results)
    but records the enactment as a typed decision trail.  [Canary] stages
    the swap: a deterministic fraction of clients is routed to the new
    generation first, the watched alert rules are observed over a bake
    window of simulated time, and the rollout then either promotes (the
    remaining traffic migrates, the old generation retires) or rolls back
    (the prior generation — never paused, never retired — resumes full
    traffic, with the reverse migration priced by the same restart +
    state-transfer cost model as the forward one).

    This module owns the pure parts — configuration, deterministic canary
    membership, the bake verdict, the phase/trail bookkeeping and the
    timeline export; the {!Controller} drives the transitions against the
    engine clock. *)

type mode = Off | Direct | Canary

val mode_name : mode -> string

val mode_of_string : string -> (mode, Adept.Error.t) result

type config = private {
  mode : mode;
  canary_fraction : float;
      (** Fraction of clients routed to the canary generation, in (0, 1). *)
  bake_window : float;
      (** Simulated seconds the canary is observed before the verdict. *)
  watch : string list;
      (** Alert-rule names whose firing at the bake deadline condemns the
          canary; [[]] watches every firing rule. *)
}

val off : config
(** The inert configuration: mode [Off], no rollout machinery. *)

val config :
  ?canary_fraction:float ->
  ?bake_window:float ->
  ?watch:string list ->
  mode ->
  (config, Adept.Error.t) result
(** Validated constructor (defaults: fraction 0.25, bake 2.0 s, watch
    [["model-drift"]]).  [Off] ignores every parameter and returns
    {!off}; [Canary] requires [canary_fraction] in (0, 1) and a positive
    finite [bake_window]. *)

val is_canary : config -> client:int -> bool
(** Deterministic canary membership: a pure multiplicative-hash split of
    the client id, so the same client lands on the same side in every
    run and no RNG is drawn (attaching a rollout cannot shift the
    workload stream).  Always [false] outside [Canary] mode. *)

(** One transition of the staged-deployment state machine, as recorded in
    the decision trail. *)
type step =
  | Canary_started  (** Canary migration window opened (canary clients pause). *)
  | Canary_enacted  (** Canary generation live; the bake window begins. *)
  | Promote_started  (** Bake passed; remaining traffic migrating over. *)
  | Promote_finished  (** New generation fully in charge; old one retired. *)
  | Rollback_started  (** Bake failed; reverse migration begins. *)
  | Rollback_finished  (** Prior generation restored, canary retired. *)
  | Direct_swap  (** [Direct] mode: one-shot enactment, no bake. *)

val step_name : step -> string

type event = { at : float; step : step; alerts : string list }
(** A trail entry: when, what, and the alert names cited (the rules firing
    at the trigger for [Canary_started]/[Direct_swap], the condemning
    rules for [Rollback_started]). *)

type outcome = Direct_enacted | Promoted | Rolled_back

val outcome_name : outcome -> string

type record = {
  outcome : outcome;
  canary_fraction : float;
  bake_window : float;
  trail : event list;  (** Chronological. *)
}
(** The finished rollout attached to a {!Controller.replan_record}. *)

val decide : config -> firing:string list -> [ `Promote | `Rollback of string list ]
(** The bake verdict from the alert names firing at the deadline: any
    watched rule still firing condemns the canary, and the condemning
    names are returned as the rollback citation. *)

(** Where a rollout currently stands; the payload is the engine time the
    phase ends.  Clients are paused per phase: canary clients during
    [Canary_migrating] and [Rolling_back], the rest during [Promoting];
    nobody pauses during [Baking]. *)
type phase =
  | Idle
  | Canary_migrating of float
  | Baking of float
  | Promoting of float
  | Rolling_back of float

type t

val create : config -> t

val config_of : t -> config

val phase : t -> phase

val active : t -> bool
(** True while any rollout phase is in progress ([phase t <> Idle]). *)

val set_phase : t -> phase -> unit

val push : t -> at:float -> ?alerts:string list -> step -> unit
(** Append a trail event. *)

val trail : t -> event list
(** The accumulated trail, chronological. *)

val reset_trail : t -> unit

val snapshot : t -> outcome:outcome -> record
(** The accumulated trail as a finished {!record}; clears the trail for
    the next rollout. *)

val phase_spans : event list -> (string * float * float option) list
(** The trail as labeled phase intervals — [canary-migration], [bake],
    [promote], [rollback] — each spanning its opening step to the
    matching closing step ([None] when the run ended inside the phase).
    Feed them to {!Adept_obs.Dashboard.render}'s [spans] to band the
    rollout over every panel. *)

val timeline_jsonl : ?alerts:Adept_obs.Alert.t -> event list -> string
(** The decision trail as JSON lines, optionally merged in chronological
    order with the alert timeline that drove it (same bytes as
    {!Adept_obs.Export.alert_timeline_jsonl}; ties order the alert
    transition before the rollout step).  Deterministic — suitable for
    golden pinning. *)
