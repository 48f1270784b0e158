(** Online redeployment: the self-healing supervision loop.

    The planner (Section 4) decides where agents and servers go before the
    run; the controller watches the deployment afterwards.  Every
    [sample_period] seconds it compares the completed-request throughput
    over a sliding [window] against the current hierarchy's model
    throughput (Eq. 16).  When the observed rate stays below [threshold]
    of the prediction, the deployment is degraded; a degraded deployment
    that the policy decides to heal is replanned with {!Adept.Planner.replan}
    over the surviving nodes and the new hierarchy is enacted online.

    Enacting is not free.  The migration pays an explicit cost — agent
    restart latency plus the slowest parallel state transfer over the
    platform's links — during which newly issued requests are dropped
    (recorded as {!Run_stats.migration_lost}); in-flight requests keep
    draining through the old hierarchy, which stays deployed until its
    work finishes.

    Three policies bound how trigger-happy the loop is:
    - [Off] only monitors: degraded time is measured, nothing is enacted.
    - [Eager] replans on the first degraded sample — the strawman that
      pays migration cost for every transient blip.
    - [Hysteresis] waits out [hold_time] of sustained degradation,
      enforces a [cooldown] between enactments, and requires the
      replanned hierarchy's predicted throughput to beat the observed
      rate by at least [min_gain] (relative).

    Which dead nodes the replan writes off is itself policy.  [Eager]
    excludes whatever is down at the trigger instant; [Hysteresis] only
    nodes that have been dead for a full [hold_time] — a node mid-repair
    keeps its place in the next hierarchy.  If an {e agent} of the new
    hierarchy dies while the migration is in flight the enactment is
    abandoned (the pause was already paid, a [Replan_suppressed
    "agent-died-mid-migration"] breadcrumb is traced) and the old
    hierarchy stays in charge; a dead {e server} is not fatal — it starts
    the new generation dead (liveness is inherited across the swap, see
    {!Middleware.deploy}'s [initial_dead]), the new generation's failover
    strikes it out and readopts it on recovery, exactly as it would
    mid-run.  Degradation clocks survive the swap too: a node still dead
    after an enactment keeps its original death time, so the next
    replan's hold does not restart at migration end.

    All policies respect [max_replans] and the [min_gain] guard (for
    [Eager] the default guard is whatever the config says — set it to 0
    to reproduce a guard-free strawman), so the invariant the property
    tests pin down holds universally: {b no enacted replan ever has a
    predicted gain below the configured minimum}.

    {e How} an accepted replan is enacted is a separate choice (see
    {!Rollout}).  The default ([Off]) is the one-shot swap described
    above.  [Canary] mode stages it: a deterministic fraction of clients
    migrates to the new hierarchy first, both generations serve while
    the monitor's alert rules judge the canary over a bake window, and
    the rollout then promotes (the rest of the fleet migrates, the old
    generation retires) or rolls back (the canary clients pay the
    reverse hop back onto the old generation, which was never paused or
    retired and is therefore restored bit-identically).  Every
    transition is pushed to the run's tracer, counted in
    [adept_rollout_transitions_total], and attached to the finished
    {!replan_record} as a typed decision trail. *)

open Adept_platform
open Adept_hierarchy

type policy = Off | Eager | Hysteresis

val policy_name : policy -> string

type config = private {
  policy : policy;
  strategy : Adept.Planner.strategy;  (** Used by every replan. *)
  sample_period : float;  (** Seconds between throughput samples. *)
  window : float;  (** Sliding measurement window, seconds. *)
  threshold : float;
      (** Degraded when observed < threshold * predicted rho; 0 never
          degrades (the determinism regression uses this). *)
  hold_time : float;  (** Sustained degradation before a trigger
                          ([Hysteresis] only). *)
  cooldown : float;  (** Minimum seconds between enactments
                         ([Hysteresis] only). *)
  min_gain : float;
      (** Required relative improvement of predicted rho over observed
          throughput; enact only if
          [rho_after > observed * (1 + min_gain)]. *)
  max_replans : int;  (** Enactment budget for the whole run. *)
  restart_latency : float;  (** Seconds to restart the agent processes. *)
  state_mbit : float;
      (** Per-element state shipped to its new parent during migration. *)
  prefer_incremental : bool;
      (** Try {!Adept.Planner.replan_incremental} first (the default);
          [false] forces every replan through the from-scratch path and
          records [Full "incremental-disabled"]. *)
  replan_slack : float;
      (** Acceptance slack handed to the incremental planner: the patch
          is kept when its predicted rho is within this fraction of the
          survivor-platform bound. *)
  rollout : Rollout.config;
      (** How enactments are staged (see {!Rollout}): [Off] (the
          default) is the legacy one-shot swap with no rollout machinery,
          [Direct] the same swap recorded as a decision trail, [Canary] a
          staged enactment with a bake window and automatic rollback. *)
}

val config :
  ?strategy:Adept.Planner.strategy ->
  ?sample_period:float ->
  ?window:float ->
  ?threshold:float ->
  ?hold_time:float ->
  ?cooldown:float ->
  ?min_gain:float ->
  ?max_replans:int ->
  ?restart_latency:float ->
  ?state_mbit:float ->
  ?prefer_incremental:bool ->
  ?replan_slack:float ->
  ?rollout:Rollout.config ->
  policy ->
  (config, Adept.Error.t) result
(** Validated construction (defaults: strategy [Heuristic], sample 1 s,
    window 5 s, threshold 0.5, hold 3 s, cooldown 20 s, min_gain 0.05,
    3 replans, restart 0.5 s, 1 Mbit of state, incremental replans
    preferred with slack 0.15).  Violations — non-positive periods, a
    window shorter than the sample period, a threshold outside [0, 1],
    negative guards, a slack outside [0, 1) — are
    [Error.Invalid_input]. *)

type replan_record = {
  at : float;  (** Enactment time (end of the migration window). *)
  failed : Node.id list;  (** The dead nodes the new hierarchy excludes. *)
  observed : float;  (** Windowed throughput at trigger time, req/s. *)
  rho_before : float;  (** Model throughput of the replaced hierarchy. *)
  rho_after : float;  (** Model throughput of the enacted hierarchy. *)
  migration_cost : float;  (** Seconds of migration pause paid. *)
  bottleneck : (Node.id * float) option;
      (** Measured bottleneck at trigger time — the node carrying the
          most critical-path seconds across the request traces collected
          so far, with that total (see
          {!Adept_obs.Request_trace.hottest_element}); [None] without a
          request-trace store or before any trace finished. *)
  alerts : string list;
      (** Alert rules firing at trigger time (see {!Adept_obs.Alert}) —
          the monitor's citation for why this replan happened; [[]]
          without an attached alert engine. *)
  mode : Adept.Planner.replan_mode;
      (** How the enacted hierarchy was planned: [Incremental] when the
          previous tree was patched in place, [Full reason] when the
          planner fell back to (or was configured for) a from-scratch
          replan.  Also traced as a ["replan-mode"] event at trigger
          time. *)
  rollout : Rollout.record option;
      (** How the enactment was staged: [None] in [Off] mode, the
          finished decision trail otherwise.  A [Rolled_back] record
          means the staged hierarchy was {e rejected} — the old
          generation is still in charge, the record's [at] is the end of
          the reverse migration, and [migration_cost] is the total
          disruption the canary clients paid (forward hop plus reverse
          hop).  Rolled-back rollouts still consume a [max_replans]
          budget slot and start the cooldown, so a bad plan is not
          immediately retried. *)
}

type t

val create :
  config ->
  engine:Engine.t ->
  params:Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  selection:Middleware.selection ->
  ?monitoring_period:float ->
  faults:Faults.t ->
  stats:Run_stats.t ->
  trace:Trace.t ->
  ?obs:Adept_obs.Registry.t ->
  ?rtrace:Adept_obs.Request_trace.t ->
  ?alerts:Adept_obs.Alert.t ->
  horizon:float ->
  middleware:Middleware.t ->
  Tree.t ->
  t
(** Attach the loop to a freshly deployed [middleware] running [tree]:
    the first sample fires one [sample_period] after the current engine
    time, and sampling stops at [horizon].  [selection],
    [monitoring_period] and [faults] are reused verbatim for every
    hierarchy the controller deploys (fault events already in the past
    are skipped by {!Middleware.deploy}).  [obs] records the control
    loop into the registry — window-throughput gauge, degraded-sample
    and replan counters, per-reason suppression counters, migration-cost
    histogram — passes it on to every hierarchy it deploys, and (when
    [trace] carries a tracer) brackets each migration window in a
    ["migration"] span.  [rtrace] is likewise passed to every hierarchy
    the controller deploys, so sampled requests keep tracing across
    generations; each enacted replan records the store's hottest element
    at trigger time as its [bottleneck] breadcrumb (and, with a tracer,
    emits a ["replan-bottleneck"] event).  [alerts] is an alert engine
    (typically the {!Monitor}'s) consulted read-only at each trigger:
    whatever rules are firing at that instant are cited in the enacted
    record's [alerts] field. *)

val middleware : t -> Middleware.t
(** The hierarchy currently in charge — changes after each enactment;
    request issuers must re-read it per request. *)

val tree : t -> Tree.t
(** The hierarchy currently in charge as a tree — what the monitor's
    model rules should be predicting against. *)

val route : t -> client:int -> Middleware.t
(** The generation serving this client right now.  Only a canary client
    during the bake (or the promote window) sees the staged generation;
    with rollout [Off]/[Direct] this is always {!middleware}.  Request
    issuers must re-read it per request. *)

val blocked_until : t -> client:int -> float option
(** When this client may issue again ([None]: free to go now).  The
    legacy full-fleet migration pause blocks every client until the
    window ends (while {!is_migrating}), while canary phases pause only
    the side of the split that is moving: canary clients during the
    forward hop and the rollback, the rest of the fleet during the
    promote, nobody while the canary bakes. *)

val monitor_rho : t -> float
(** The model throughput the monitor's rules should predict against.
    Equal to {!predicted_rho} except while a canary bakes, when the
    fleet is split and the forecast blends the staged hierarchy's model
    throughput (weighted by the canary fraction) with what the old
    generation was actually observed delivering at the trigger. *)

val records : t -> replan_record list
(** Enacted replans, chronological. *)

val fault_stats : t -> Middleware.fault_stats
(** Counters merged across every generation (current plus retired). *)

val pp_record : Format.formatter -> replan_record -> unit
