(** Fault-injection schedules for the simulator.

    The paper's steady-state model assumes every element stays up for the
    whole run; real Grid'5000 deployments do not.  A [Faults.t] describes
    what goes wrong during a simulation — node crashes and recoveries at
    scheduled instants, uniform link degradation windows, and random
    message loss — together with the middleware's defensive reaction
    parameters (client round-trip timeout, retry budget, backoff, and the
    agents' patience while collecting child replies).

    A schedule is immutable data: {!Middleware.deploy} consumes it and
    installs the events.  {!none} is the empty schedule; deployments made
    with it take exactly the pre-fault code path, so a run with
    [Faults.none] is bit-for-bit identical to one without any fault
    argument (the determinism regression test pins this down).  Message
    loss draws come from a dedicated {!Adept_util.Rng} seeded by
    [loss_seed], never from the scenario's workload stream. *)

open Adept_platform

type event_kind = Crash | Recover

type node_event = { node : Node.id; at : float; kind : event_kind }

type degradation = { from_ : float; until : float; factor : float }
(** Between [from_] and [until] every link runs at [factor] times its
    nominal bandwidth ([0 < factor <= 1]). *)

type t = private {
  node_events : node_event list;  (** Chronological. *)
  degradations : degradation list;
  drop_probability : float;  (** Per-message loss probability in [\[0, 1)]. *)
  loss_seed : int;  (** Seeds the message-loss stream. *)
  timeout : float;  (** Client-side scheduling round-trip timeout, s. *)
  service_timeout : float;  (** Client-side service-phase timeout, s. *)
  max_retries : int;  (** Scheduling retries after the first attempt. *)
  backoff : float;  (** Timeout multiplier per retry, [>= 1]. *)
  patience : float;  (** Agent-side wait for child replies before
                         finalising with what arrived and pruning the
                         silent children, s. *)
}

val none : t
(** The empty schedule: no events, no loss, no degradation.  Deploying
    with it changes nothing — not even event-queue insertion order. *)

val is_none : t -> bool
(** True iff the schedule can never perturb a run (no node events, no
    degradation windows, zero drop probability). *)

val make :
  ?timeout:float ->
  ?service_timeout:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?patience:float ->
  unit ->
  (t, Adept.Error.t) result
(** An empty schedule with explicit reaction parameters (defaults:
    timeout 0.5 s, service_timeout 5 s, 3 retries, backoff 2.0,
    patience 0.25 s), validated at construction: every time must be
    positive and finite, [max_retries >= 0], [backoff >= 1].  Violations
    are reported as [Error.Invalid_input] instead of raising, so a CLI can
    surface them as exit diagnostics. *)

val make_exn :
  ?timeout:float ->
  ?service_timeout:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?patience:float ->
  unit ->
  t
(** {!make} for static, known-good parameters (tests, benches).
    @raise Invalid_argument where {!make} returns [Error]. *)

val crash : ?recover_at:float -> node:Node.id -> at:float -> t -> t
(** Add a crash of [node] at time [at], with an optional later recovery.
    @raise Invalid_argument if times are negative or
    [recover_at <= at]. *)

val degrade : from_:float -> until:float -> factor:float -> t -> t
(** Add a uniform link-degradation window.
    @raise Invalid_argument unless [0 <= from_ < until] and
    [0 < factor <= 1]. *)

val with_message_loss : probability:float -> seed:int -> t -> t
(** Drop each middleware message independently with [probability].
    @raise Invalid_argument unless [0 <= probability < 1]. *)

val seeded_crashes :
  rng:Adept_util.Rng.t ->
  nodes:Node.id list ->
  rate:float ->
  mttr:float ->
  horizon:float ->
  t ->
  t
(** Draw per-node Poisson crash processes: each node fails with rate
    [rate] (crashes per simulated second while up) and recovers after an
    exponential repair time of mean [mttr].  Events beyond [horizon] are
    not generated.  [rate = 0] adds nothing.  Deterministic in the [rng]
    state.
    @raise Invalid_argument on negative rate or non-positive
    [mttr]/[horizon]. *)

val bandwidth_factor : t -> now:float -> float
(** Product of the factors of every window containing [now]; 1.0 outside
    all windows. *)

val events_before : t -> horizon:float -> node_event list
(** Chronological node events strictly before [horizon]. *)
