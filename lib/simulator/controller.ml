open Adept_platform
open Adept_hierarchy
module Planner = Adept.Planner
module Error = Adept.Error
module Params = Adept_model.Params
module Demand = Adept_model.Demand

type policy = Off | Eager | Hysteresis

let policy_name = function
  | Off -> "off"
  | Eager -> "eager"
  | Hysteresis -> "hysteresis"

type config = {
  policy : policy;
  strategy : Planner.strategy;
  sample_period : float;
  window : float;
  threshold : float;
  hold_time : float;
  cooldown : float;
  min_gain : float;
  max_replans : int;
  restart_latency : float;
  state_mbit : float;
  prefer_incremental : bool;
  replan_slack : float;
  rollout : Rollout.config;
}

let ( let* ) = Result.bind

let positive name v =
  if v <= 0.0 || not (Float.is_finite v) then
    Error
      (Error.invalid_input "Controller.config: %s must be positive and finite, got %g"
         name v)
  else Ok ()

let non_negative name v =
  if v < 0.0 || not (Float.is_finite v) then
    Error
      (Error.invalid_input
         "Controller.config: %s must be non-negative and finite, got %g" name v)
  else Ok ()

let config ?(strategy = Planner.Heuristic) ?(sample_period = 1.0) ?(window = 5.0)
    ?(threshold = 0.5) ?(hold_time = 3.0) ?(cooldown = 20.0) ?(min_gain = 0.05)
    ?(max_replans = 3) ?(restart_latency = 0.5) ?(state_mbit = 1.0)
    ?(prefer_incremental = true) ?(replan_slack = 0.15) ?(rollout = Rollout.off)
    policy =
  let* () = positive "sample_period" sample_period in
  let* () = positive "window" window in
  let* () =
    if window < sample_period then
      Error
        (Error.invalid_input
           "Controller.config: window (%g) must cover at least one sample period (%g)"
           window sample_period)
    else Ok ()
  in
  let* () =
    if threshold < 0.0 || threshold > 1.0 || Float.is_nan threshold then
      Error
        (Error.invalid_input "Controller.config: threshold must be in [0, 1], got %g"
           threshold)
    else Ok ()
  in
  let* () = non_negative "hold_time" hold_time in
  let* () = non_negative "cooldown" cooldown in
  let* () = non_negative "min_gain" min_gain in
  let* () =
    if max_replans < 0 then
      Error
        (Error.invalid_input "Controller.config: max_replans must be >= 0, got %d"
           max_replans)
    else Ok ()
  in
  let* () = non_negative "restart_latency" restart_latency in
  let* () = non_negative "state_mbit" state_mbit in
  let* () =
    if replan_slack < 0.0 || replan_slack >= 1.0 || Float.is_nan replan_slack then
      Error
        (Error.invalid_input "Controller.config: replan_slack must be in [0, 1), got %g"
           replan_slack)
    else Ok ()
  in
  Ok
    {
      policy;
      strategy;
      sample_period;
      window;
      threshold;
      hold_time;
      cooldown;
      min_gain;
      max_replans;
      restart_latency;
      state_mbit;
      prefer_incremental;
      replan_slack;
      rollout;
    }

type replan_record = {
  at : float;
  failed : Node.id list;
  observed : float;
  rho_before : float;
  rho_after : float;
  migration_cost : float;
  bottleneck : (Node.id * float) option;
  alerts : string list;
  mode : Planner.replan_mode;
  rollout : Rollout.record option;
}

(* Pre-resolved controller instruments (suppression counters are
   resolved per reason at suppression time — reasons are open-ended). *)
type ctrl_obs = {
  co_registry : Adept_obs.Registry.t;
  co_replans : Adept_obs.Counter.t;
  co_migration : Adept_obs.Histogram.t;
  co_window : Adept_obs.Gauge.t;
  co_degraded : Adept_obs.Counter.t;
}

let make_ctrl_obs registry =
  let module Obs = Adept_obs in
  {
    co_registry = registry;
    co_replans = Obs.Registry.counter registry Obs.Semconv.controller_replans_total;
    co_migration =
      Obs.Registry.histogram registry Obs.Semconv.controller_migration_seconds;
    co_window = Obs.Registry.gauge registry Obs.Semconv.controller_window_throughput;
    co_degraded =
      Obs.Registry.counter registry Obs.Semconv.controller_degraded_samples_total;
  }

(* A canary generation waiting on its bake verdict: the provisional
   middleware plus everything needed to finish the replan record once the
   rollout settles one way or the other. *)
type staging = {
  s_canary : Middleware.t;
  s_result : Planner.replan_result;
  s_mode : Planner.replan_mode;
  s_observed : float;
  s_cost : float;  (* forward migration window, seconds *)
  s_bottleneck : (Node.id * float) option;
  s_alerts : string list;
}

type t = {
  cfg : config;
  engine : Engine.t;
  params : Params.t;
  platform : Platform.t;
  wapp : float;
  demand : Demand.t;
  selection : Middleware.selection;
  monitoring_period : float option;
  faults : Faults.t;
  stats : Run_stats.t;
  trace : Trace.t;
  horizon : float;
  mutable middleware : Middleware.t;
  mutable retired : Middleware.t list;
  mutable tree : Tree.t;
  dead_since : (Node.id, float) Hashtbl.t;
      (* When each currently-dead tree node was first sampled dead;
         entries disappear on recovery.  Generation swaps keep the
         entries of nodes still dead in the new tree (seeded from the
         crash time when sampling missed the death). *)
  written_off : (Node.id, unit) Hashtbl.t;
      (* Nodes a past replan excluded from its hierarchy.  The full
         replan re-admits recovered ones implicitly (it plans over
         every survivor); the incremental patcher cannot — it only
         removes tree nodes — so the ones that are alive again are
         threaded to [Planner.replan_incremental ~recovered] for
         explicit re-admission.  Entries are dropped once the node
         serves in an enacted hierarchy again. *)
  mutable predicted_rho : float;
  mutable degraded_since : float option;
  mutable last_enact : float;
  mutable migration_until : float option;
  mutable enacted : replan_record list;  (* newest first *)
  rollout : Rollout.t;
  mutable staging : staging option;
  mutable observed_at_trigger : float;
      (* Windowed throughput at the trigger that started the rollout in
         flight — the old generation's share of the blended bake
         prediction. *)
  obs : ctrl_obs option;
  rtrace : Adept_obs.Request_trace.t option;
  alerts : Adept_obs.Alert.t option;
}

let middleware t = t.middleware

let tree t = t.tree

let records t = List.rev t.enacted

let is_migrating t =
  match t.migration_until with
  | Some until -> Engine.now t.engine < until
  | None -> false

let migration_ends t =
  match t.migration_until with
  | Some until -> until
  | None -> Engine.now t.engine

(* Which generation serves this client right now.  Only a canary client
   during the bake (or the promote window, while the rest of the fleet is
   still migrating over) sees the staged generation; everyone else stays
   on the hierarchy in charge.  With rollout [Off]/[Direct] the staging
   slot is never filled, so this is exactly [middleware t]. *)
let route t ~client =
  match t.staging with
  | Some s when Rollout.is_canary (Rollout.config_of t.rollout) ~client -> (
      match Rollout.phase t.rollout with
      | Rollout.Baking _ | Rollout.Promoting _ -> s.s_canary
      | Rollout.Idle | Rollout.Canary_migrating _ | Rollout.Rolling_back _ ->
          t.middleware)
  | Some _ | None -> t.middleware

(* When this client may issue again, [None] if it is free to go now.
   The legacy full-fleet pause ([Off]/[Direct], and the only pause those
   modes ever take) blocks everyone; canary phases pause only the side
   of the split that is actually moving: canary clients during their
   forward hop and during a rollback, the rest of the fleet during a
   promote.  Nobody pauses while the canary bakes. *)
let blocked_until t ~client =
  if is_migrating t then Some (migration_ends t)
  else
    let canary () = Rollout.is_canary (Rollout.config_of t.rollout) ~client in
    match Rollout.phase t.rollout with
    | Rollout.Idle | Rollout.Baking _ -> None
    | Rollout.Canary_migrating until | Rollout.Rolling_back until ->
        if canary () then Some until else None
    | Rollout.Promoting until -> if canary () then None else Some until

let fault_stats t =
  let staged =
    match t.staging with
    | Some s -> Middleware.fault_stats s.s_canary
    | None -> Middleware.fault_stats t.middleware
  in
  let base =
    match t.staging with
    | Some _ ->
        Middleware.merge_fault_stats staged (Middleware.fault_stats t.middleware)
    | None -> staged
  in
  List.fold_left
    (fun acc mw -> Middleware.merge_fault_stats acc (Middleware.fault_stats mw))
    base t.retired

(* Liveness of a node as the static fault schedule has it: the last
   crash/recovery at or before [now] wins, a node the schedule never
   names is up.  The middleware only tracks liveness for nodes it
   deployed, so this is the source of truth for everything off the
   running tree — the still-dead off-tree node that must stay out of the
   replan pool, and the recovered one that may rejoin it. *)
let schedule_status t id ~now =
  List.fold_left
    (fun acc ev ->
      if ev.Faults.node = id && ev.Faults.at <= now then
        match ev.Faults.kind with
        | Faults.Crash -> `Dead ev.Faults.at
        | Faults.Recover -> `Alive
      else acc)
    `Alive t.faults.Faults.node_events

(* Global liveness: the deployed generation's view where it has one,
   the schedule's everywhere else. *)
let node_alive t id ~now =
  if Middleware.is_deployed t.middleware id then
    Middleware.is_alive t.middleware id
  else match schedule_status t id ~now with `Dead _ -> false | `Alive -> true

(* What the monitor's model rules should predict against.  While a canary
   bakes, the fleet is split: a [canary_fraction] share runs on the staged
   hierarchy (model throughput [rho_after]) and the rest still limps along
   on the old one — whose honest short-term forecast is what it was
   actually observed delivering at the trigger, not its own healthy-state
   model.  Outside a bake this is just {!predicted_rho}. *)
let monitor_rho t =
  match (Rollout.phase t.rollout, t.staging) with
  | Rollout.Baking _, Some s ->
      let f = (Rollout.config_of t.rollout).Rollout.canary_fraction in
      (f *. s.s_result.Planner.rho_after)
      +. ((1.0 -. f) *. t.observed_at_trigger)
  | _ -> t.predicted_rho

(* Every state-machine transition lands in three places at once: the
   typed decision trail (golden-pinned timeline), the run's tracer (the
   monitor timeline and dashboard read it), and the transition counter.
   All three are pure observation — no events, no RNG. *)
let rollout_transition t ~at ?(alerts = []) step =
  Rollout.push t.rollout ~at ~alerts step;
  (match Trace.tracer t.trace with
  | Some tracer ->
      Adept_obs.Tracer.event tracer ~at
        ~labels:
          (Adept_obs.Label.v
             ((Adept_obs.Semconv.l_step, Rollout.step_name step)
             ::
             (match alerts with
             | [] -> []
             | a -> [ ("alerts", String.concat " " a) ])))
        "rollout"
  | None -> ());
  match t.obs with
  | Some o ->
      Adept_obs.Counter.inc
        (Adept_obs.Registry.counter o.co_registry
           ~labels:
             (Adept_obs.Label.v
                [ (Adept_obs.Semconv.l_step, Rollout.step_name step) ])
           Adept_obs.Semconv.rollout_transitions_total)
  | None -> ()

(* Agents and servers restart in parallel and each pulls its state over
   the link to its new parent, so the pause the clients see is the restart
   latency plus the slowest single transfer — not the sum.  The root has
   no parent and restarts from local state. *)
let migration_cost t tree =
  let link_latency = Link.latency (Platform.link t.platform) in
  let xfer parent node =
    match parent with
    | None -> 0.0
    | Some p ->
        link_latency
        +. (t.cfg.state_mbit
            /. Platform.bandwidth t.platform (Node.id p) (Node.id node))
  in
  let rec walk parent acc = function
    | Tree.Server n -> Float.max acc (xfer parent n)
    | Tree.Agent (n, children) ->
        List.fold_left (walk (Some n)) (Float.max acc (xfer parent n)) children
  in
  t.cfg.restart_latency +. walk None 0.0 tree

let record_suppressed t reason =
  Trace.record_failure t.trace ~time:(Engine.now t.engine)
    (Trace.Replan_suppressed reason);
  match t.obs with
  | Some o ->
      Adept_obs.Counter.inc
        (Adept_obs.Registry.counter o.co_registry
           ~labels:(Adept_obs.Label.v [ (Adept_obs.Semconv.l_reason, reason) ])
           Adept_obs.Semconv.controller_suppressed_total)
  | None -> ()

(* The write-off ledger follows the hierarchy that actually serves: a
   replan that got suppressed (gain guard, dead agent mid-migration) or
   rolled back wrote nothing off, so the ledger only moves when a new
   generation takes charge — its exclusions join, anything it serves
   again leaves. *)
let note_written_off t (r : Planner.replan_result) =
  List.iter (fun id -> Hashtbl.replace t.written_off id ()) r.Planner.failed;
  List.iter
    (fun n -> Hashtbl.remove t.written_off (Node.id n))
    (Tree.nodes r.Planner.replanned.Planner.tree)

(* Migration finished: swap generations — unless an agent the new
   hierarchy is built around died while it was being set up, in which
   case the migration is abandoned (its disruption was already paid) and
   the old hierarchy stays in charge.  A server that died meanwhile is
   not fatal: the fresh generation's failover strikes it out and rejoins
   it on recovery, exactly as it would mid-run. *)
let enact t (r : Planner.replan_result) ~mode ~observed ~cost ~bottleneck ~alerts () =
  let now = Engine.now t.engine in
  t.migration_until <- None;
  let new_tree = r.Planner.replanned.Planner.tree in
  let structural =
    match Tree.agents new_tree with
    | [] -> [ Tree.root_node new_tree ]
    | agents -> agents
  in
  let dead_agent =
    List.exists (fun n -> not (node_alive t (Node.id n) ~now)) structural
  in
  if dead_agent then record_suppressed t "agent-died-mid-migration"
  else begin
    (* Liveness carries across the swap: a node kept in the new tree
       despite being down right now (dead for less than the hold under
       [Hysteresis], or crashed during the migration window) must start
       the new generation dead — otherwise it would serve requests for
       the rest of its downtime and its pending recovery event would be a
       no-op.  Its [dead_since] clock survives too, timestamped at the
       first sample that saw it dead (or its actual crash time if it died
       while sampling was paused by the migration), so the next replan's
       hold does not restart at migration end. *)
    let inherited_dead =
      List.filter_map
        (fun n ->
          let id = Node.id n in
          if Middleware.is_deployed t.middleware id then
            if Middleware.is_alive t.middleware id then None
            else Some (id, Middleware.crash_time t.middleware id)
          else
            (* Re-admitted node the old generation never deployed: its
               liveness comes from the schedule, not the stale default. *)
            match schedule_status t id ~now with
            | `Dead crashed -> Some (id, crashed)
            | `Alive -> None)
        (Tree.nodes new_tree)
    in
    let dead_since =
      List.map
        (fun (id, crashed) ->
          (id, Option.value ~default:crashed (Hashtbl.find_opt t.dead_since id)))
        inherited_dead
    in
    Hashtbl.reset t.dead_since;
    List.iter (fun (id, since) -> Hashtbl.replace t.dead_since id since) dead_since;
    Middleware.retire t.middleware;
    t.retired <- t.middleware :: t.retired;
    t.middleware <-
      Middleware.deploy ~trace:t.trace
        ?obs:(Option.map (fun o -> o.co_registry) t.obs)
        ?rtrace:t.rtrace ~selection:t.selection
        ?monitoring_period:t.monitoring_period
        ~faults:t.faults ~engine:t.engine ~params:t.params ~platform:t.platform
        ~initial_dead:inherited_dead new_tree;
    t.tree <- new_tree;
    note_written_off t r;
    t.predicted_rho <- r.Planner.rho_after;
    t.last_enact <- now;
    t.degraded_since <- None;
    Run_stats.record_replan t.stats;
    (match t.obs with
    | Some o ->
        Adept_obs.Counter.inc o.co_replans;
        Adept_obs.Histogram.record o.co_migration cost
    | None -> ());
    Trace.record_failure t.trace ~time:now (Trace.Replan_enacted r.Planner.failed);
    (* [Direct] mode is behaviourally identical to [Off] but leaves the
       one-shot swap in the decision trail — tracer events only, nothing
       the trace fingerprint hashes, so the bit-identity regression holds. *)
    let rollout =
      match (Rollout.config_of t.rollout).Rollout.mode with
      | Rollout.Direct ->
          rollout_transition t ~at:now ~alerts Rollout.Direct_swap;
          Some (Rollout.snapshot t.rollout ~outcome:Rollout.Direct_enacted)
      | Rollout.Off | Rollout.Canary -> None
    in
    t.enacted <-
      {
        at = now;
        failed = r.Planner.failed;
        observed;
        rho_before = r.Planner.rho_before;
        rho_after = r.Planner.rho_after;
        migration_cost = cost;
        bottleneck;
        alerts;
        mode;
        rollout;
      }
      :: t.enacted
  end

(* ---------- canary rollout state machine ----------

   Canary mode replaces the one-shot swap with four phases driven off the
   engine clock: [Canary_migrating] (only the canary share of clients
   pauses for the forward migration window), [Baking] (both generations
   serve, the monitor's alert rules are the judges), then either
   [Promoting] (the rest of the fleet pays its migration pause and the
   old generation retires) or [Rolling_back] (the canary clients pay the
   reverse hop back onto the old generation, which never stopped serving
   and is restored bit-identically because it was never touched). *)

(* The canary passed its bake: the staged generation takes charge.  This
   is the canary-mode twin of [enact] — the hierarchy is already deployed
   and warm, so the swap is bookkeeping: unmute its topology recording,
   retire the old generation, carry liveness and hold clocks over. *)
let finish_promote t (s : staging) () =
  let now = Engine.now t.engine in
  let r = s.s_result in
  let new_tree = r.Planner.replanned.Planner.tree in
  Middleware.retire t.middleware;
  t.retired <- t.middleware :: t.retired;
  Middleware.set_recording s.s_canary true;
  t.middleware <- s.s_canary;
  t.tree <- new_tree;
  note_written_off t r;
  let dead =
    List.filter_map
      (fun n ->
        let id = Node.id n in
        if Middleware.is_alive s.s_canary id then None
        else
          let crashed = Middleware.crash_time s.s_canary id in
          Some (id, Option.value ~default:crashed (Hashtbl.find_opt t.dead_since id)))
      (Tree.nodes new_tree)
  in
  Hashtbl.reset t.dead_since;
  List.iter (fun (id, since) -> Hashtbl.replace t.dead_since id since) dead;
  t.predicted_rho <- r.Planner.rho_after;
  t.last_enact <- now;
  t.degraded_since <- None;
  t.staging <- None;
  Run_stats.record_replan t.stats;
  (match t.obs with
  | Some o ->
      Adept_obs.Counter.inc o.co_replans;
      Adept_obs.Histogram.record o.co_migration s.s_cost
  | None -> ());
  Trace.record_failure t.trace ~time:now (Trace.Replan_enacted r.Planner.failed);
  rollout_transition t ~at:now Rollout.Promote_finished;
  Rollout.set_phase t.rollout Rollout.Idle;
  let rollout = Rollout.snapshot t.rollout ~outcome:Rollout.Promoted in
  t.enacted <-
    {
      at = now;
      failed = r.Planner.failed;
      observed = s.s_observed;
      rho_before = r.Planner.rho_before;
      rho_after = r.Planner.rho_after;
      migration_cost = s.s_cost;
      bottleneck = s.s_bottleneck;
      alerts = s.s_alerts;
      mode = s.s_mode;
      rollout = Some rollout;
    }
    :: t.enacted

let promote t (s : staging) ~now =
  (* The remaining (1 - fraction) of the fleet migrates onto the same
     tree the canary clients already crossed to, so the promote window
     is priced by the same forward cost. *)
  Rollout.set_phase t.rollout (Rollout.Promoting (now +. s.s_cost));
  rollout_transition t ~at:now Rollout.Promote_started;
  Engine.schedule t.engine ~delay:s.s_cost (finish_promote t s)

(* The reverse hop landed: the canary generation is abandoned.  The old
   generation was never retired, never paused and kept every client
   outside the canary fraction, so restoring it is a pure routing flip —
   its liveness, hold clocks and in-flight work are exactly what they
   would have been had the rollout never happened. *)
let finish_rollback t (s : staging) ~back_cost () =
  let now = Engine.now t.engine in
  let r = s.s_result in
  Middleware.retire s.s_canary;
  t.retired <- s.s_canary :: t.retired;
  t.staging <- None;
  (* The rolled-back plan spends a budget slot and starts the cooldown:
     without both, the very next degraded sample would stage the same
     rejected hierarchy again. *)
  t.last_enact <- now;
  t.degraded_since <- None;
  rollout_transition t ~at:now Rollout.Rollback_finished;
  Rollout.set_phase t.rollout Rollout.Idle;
  let rollout = Rollout.snapshot t.rollout ~outcome:Rollout.Rolled_back in
  t.enacted <-
    {
      at = now;
      failed = r.Planner.failed;
      observed = s.s_observed;
      rho_before = r.Planner.rho_before;
      rho_after = r.Planner.rho_after;
      migration_cost = s.s_cost +. back_cost;
      bottleneck = s.s_bottleneck;
      alerts = s.s_alerts;
      mode = s.s_mode;
      rollout = Some rollout;
    }
    :: t.enacted

let rollback t (s : staging) ~now ~cited =
  (* The reverse migration is priced by the same restart + state-transfer
     model as the forward one, against the tree being restored. *)
  let back_cost = migration_cost t t.tree in
  record_suppressed t "canary-rolled-back";
  Rollout.set_phase t.rollout (Rollout.Rolling_back (now +. back_cost));
  rollout_transition t ~at:now ~alerts:cited Rollout.Rollback_started;
  Engine.schedule t.engine ~delay:back_cost (finish_rollback t s ~back_cost)

(* Bake deadline: the verdict.  Any watched alert rule still firing
   condemns the canary, as does the death of one of its structural
   agents during the bake (promoting a hierarchy built around a corpse
   is what the legacy path's mid-migration guard prevents). *)
let finish_bake t () =
  match t.staging with
  | None -> ()
  | Some s ->
      let now = Engine.now t.engine in
      let new_tree = s.s_result.Planner.replanned.Planner.tree in
      let structural =
        match Tree.agents new_tree with
        | [] -> [ Tree.root_node new_tree ]
        | agents -> agents
      in
      let canary_agent_died =
        List.exists
          (fun n -> not (Middleware.is_alive s.s_canary (Node.id n)))
          structural
      in
      let firing =
        match t.alerts with
        | Some a -> Adept_obs.Alert.firing_names a
        | None -> []
      in
      let verdict =
        if canary_agent_died then `Rollback [ "canary-agent-died" ]
        else Rollout.decide (Rollout.config_of t.rollout) ~firing
      in
      (match verdict with
      | `Promote -> promote t s ~now
      | `Rollback cited -> rollback t s ~now ~cited)

(* Forward migration window over: deploy the canary generation and start
   the bake.  The canary deploys muted ([Middleware.set_recording]) — the
   old generation is still in charge and is the one witness of every
   topology event — and inherits global liveness, so nodes dead right now
   start dead in it too. *)
let begin_bake t (r : Planner.replan_result) ~mode ~observed ~cost ~bottleneck
    ~alerts () =
  let now = Engine.now t.engine in
  let new_tree = r.Planner.replanned.Planner.tree in
  let structural =
    match Tree.agents new_tree with
    | [] -> [ Tree.root_node new_tree ]
    | agents -> agents
  in
  let dead_agent =
    List.exists (fun n -> not (node_alive t (Node.id n) ~now)) structural
  in
  if dead_agent then begin
    (* Same abandonment as the legacy path: the canary clients' pause was
       already paid, the old hierarchy stays in charge, and the aborted
       trail is discarded rather than recorded as a finished rollout. *)
    Rollout.set_phase t.rollout Rollout.Idle;
    Rollout.reset_trail t.rollout;
    record_suppressed t "agent-died-mid-migration"
  end
  else begin
    let inherited_dead =
      List.filter_map
        (fun n ->
          let id = Node.id n in
          if node_alive t id ~now then None
          else
            let crashed =
              if Middleware.is_deployed t.middleware id then
                Middleware.crash_time t.middleware id
              else
                match schedule_status t id ~now with
                | `Dead crashed -> crashed
                | `Alive -> now
            in
            Some (id, crashed))
        (Tree.nodes new_tree)
    in
    let canary =
      Middleware.deploy ~trace:t.trace
        ?obs:(Option.map (fun o -> o.co_registry) t.obs)
        ?rtrace:t.rtrace ~selection:t.selection
        ?monitoring_period:t.monitoring_period ~faults:t.faults ~engine:t.engine
        ~params:t.params ~platform:t.platform ~initial_dead:inherited_dead
        new_tree
    in
    Middleware.set_recording canary false;
    t.staging <-
      Some
        {
          s_canary = canary;
          s_result = r;
          s_mode = mode;
          s_observed = observed;
          s_cost = cost;
          s_bottleneck = bottleneck;
          s_alerts = alerts;
        };
    let bake = (Rollout.config_of t.rollout).Rollout.bake_window in
    Rollout.set_phase t.rollout (Rollout.Baking (now +. bake));
    rollout_transition t ~at:now Rollout.Canary_enacted;
    Engine.schedule t.engine ~delay:bake (finish_bake t)
  end

(* A sustained-degradation trigger survived the policy's timing guards;
   decide whether a replan is worth enacting.  Every veto leaves a
   [Replan_suppressed] breadcrumb in the trace. *)
let consider t ~now ~observed =
  Trace.record_failure t.trace ~time:now Trace.Replan_triggered;
  if List.length t.enacted >= t.cfg.max_replans then
    record_suppressed t "replan-budget-exhausted"
  else if t.cfg.policy = Hysteresis && now -. t.last_enact < t.cfg.cooldown then
    record_suppressed t "cooldown"
  else begin
    (* Which dead nodes count as failed is itself policy: [Eager] writes
       off whatever is down at this instant, [Hysteresis] only nodes that
       stayed dead through the whole hold — a node mid-repair is not worth
       excluding from the next hierarchy. *)
    let node_hold =
      match t.cfg.policy with Hysteresis -> t.cfg.hold_time | Off | Eager -> 0.0
    in
    let failed =
      List.filter_map
        (fun n ->
          let id = Node.id n in
          if Middleware.is_alive t.middleware id then None
          else
            match Hashtbl.find_opt t.dead_since id with
            | Some since when now -. since >= node_hold -. 1e-9 -> Some id
            | Some _ | None -> None)
        (Tree.nodes t.tree)
    in
    if failed = [] then record_suppressed t "no-dead-nodes"
    else
      (* Nodes outside the running tree are invisible to the middleware's
         fault handling, so their liveness comes from the fault schedule:
         the full replan plans over the platform minus [failed], which
         both keeps a still-dead off-tree node out of the candidate pool
         and silently re-admits one that recovered since it was written
         off.  Only dead {e tree} nodes trigger (above) — a node already
         written off is not a new reason to replan — but once a replan is
         going ahead the off-tree dead join the exclusion list.  For the
         incremental path the extra ids are no-ops (the patch only
         removes tree nodes) but still tighten its survivor bound. *)
      let failed =
        let in_tree id =
          List.exists (fun n -> Node.id n = id) (Tree.nodes t.tree)
        in
        failed
        @ List.filter_map
            (fun n ->
              let id = Node.id n in
              if in_tree id then None
              else
                match schedule_status t id ~now with
                | `Dead _ -> Some id
                | `Alive -> None)
            (Platform.nodes t.platform)
      in
      (* The planner first tries to patch the running hierarchy in place
         (cheap, structure-preserving) and only replans from scratch when
         the patch's predicted throughput trails the survivor bound by
         more than the configured slack — unless incremental planning is
         switched off, in which case every replan is a full one. *)
      (* Written-off nodes that came back to life are re-admission
         candidates for the incremental patcher (the full replan needs no
         hint: it plans over every survivor).  Liveness comes from the
         fault schedule — these nodes are off the running tree, invisible
         to the middleware. *)
      let recovered =
        Hashtbl.fold
          (fun id () acc ->
            if
              (not (List.mem id failed))
              && (not (Tree.mem t.tree id))
              && node_alive t id ~now
            then id :: acc
            else acc)
          t.written_off []
        |> List.sort Int.compare
      in
      match
        if t.cfg.prefer_incremental then
          Planner.replan_incremental t.cfg.strategy t.params ~platform:t.platform
            ~wapp:t.wapp ~demand:t.demand ~failed ~recovered ~previous:t.tree
            ~slack:t.cfg.replan_slack ()
        else
          Result.map
            (fun r -> (r, Planner.Full "incremental-disabled"))
            (Planner.replan t.cfg.strategy t.params ~platform:t.platform ~wapp:t.wapp
               ~demand:t.demand ~failed ~reference:t.tree ())
      with
      | Error e -> record_suppressed t (Error.to_string e)
      | Ok (r, mode) ->
          (* The gain guard compares the replanned hierarchy's model
             throughput against what is actually being observed: replacing
             a limping deployment is only worth the migration pause if the
             model predicts a real improvement. *)
          if r.Planner.rho_after <= observed *. (1.0 +. t.cfg.min_gain) then
            record_suppressed t "insufficient-gain"
          else begin
            let cost = migration_cost t r.Planner.replanned.Planner.tree in
            (* Where the time actually went: the element carrying the most
               critical-path seconds across the traces collected so far.
               Purely a breadcrumb — the replan itself is driven by the
               model, but the record shows what the measurement blamed. *)
            let bottleneck =
              Option.bind t.rtrace Adept_obs.Request_trace.hottest_element
            in
            (* The monitor's view of why: whatever alert rules are firing
               at the trigger instant go into the record, so a replan can
               cite e.g. [model-drift] as its observable cause. *)
            let alerts =
              match t.alerts with
              | Some a -> Adept_obs.Alert.firing_names a
              | None -> []
            in
            (* How this replan was planned: patched in place or rebuilt
               from scratch (and why the patch was rejected, if so). *)
            (match Trace.tracer t.trace with
            | Some tracer ->
                Adept_obs.Tracer.event tracer ~at:now
                  ~labels:
                    (Adept_obs.Label.v
                       (("mode", Planner.replan_mode_name mode)
                       ::
                       (match Planner.replan_fallback_reason mode with
                       | Some reason -> [ ("reason", reason) ]
                       | None -> [])))
                  "replan-mode"
            | None -> ());
            (match (bottleneck, Trace.tracer t.trace) with
            | Some (node, seconds), Some tracer ->
                Adept_obs.Tracer.event tracer ~at:now
                  ~labels:
                    (Adept_obs.Label.v
                       [
                         ("node", string_of_int node);
                         ("critical_path_seconds", Printf.sprintf "%.6f" seconds);
                       ])
                  "replan-bottleneck"
            | _ -> ());
            match (Rollout.config_of t.rollout).Rollout.mode with
            | Rollout.Off | Rollout.Direct ->
                (* The one-shot swap: the whole fleet pauses for the
                   migration window and the new generation takes over at
                   its end. *)
                t.migration_until <- Some (now +. cost);
                (* The migration window as a span in the run's trace. *)
                let span =
                  Option.map
                    (fun tracer ->
                      ( tracer,
                        Adept_obs.Tracer.span_start tracer ~at:now
                          ~labels:
                            (Adept_obs.Label.v
                               [
                                 ( "failed",
                                   String.concat " "
                                     (List.map string_of_int failed) );
                               ])
                          "migration" ))
                    (Trace.tracer t.trace)
                in
                Engine.schedule t.engine ~delay:cost (fun () ->
                    (match span with
                    | Some (tracer, sp) ->
                        Adept_obs.Tracer.span_end tracer ~at:(Engine.now t.engine)
                          sp
                    | None -> ());
                    enact t r ~mode ~observed ~cost ~bottleneck ~alerts ())
            | Rollout.Canary ->
                (* Staged enactment: only the canary share of the fleet
                   pauses for the forward hop; the bake, verdict and
                   final swap (or rollback) play out from [begin_bake]
                   onwards. *)
                t.observed_at_trigger <- observed;
                Rollout.set_phase t.rollout
                  (Rollout.Canary_migrating (now +. cost));
                rollout_transition t ~at:now ~alerts Rollout.Canary_started;
                Engine.schedule t.engine ~delay:cost
                  (begin_bake t r ~mode ~observed ~cost ~bottleneck ~alerts)
          end
  end

let note_node_states t ~now =
  List.iter
    (fun n ->
      let id = Node.id n in
      if Middleware.is_alive t.middleware id then Hashtbl.remove t.dead_since id
      else if not (Hashtbl.mem t.dead_since id) then Hashtbl.replace t.dead_since id now)
    (Tree.nodes t.tree)

let rec tick t () =
  let now = Engine.now t.engine in
  (* Sampling pauses for the legacy full-fleet migration window and for
     every rollout phase: mid-rollout the fleet is split across two
     generations, so a window sample is not comparable to either model,
     and a nested trigger would race the state machine. *)
  (if not (is_migrating t) && not (Rollout.active t.rollout) then begin
     note_node_states t ~now;
     let t0 = Float.max 0.0 (now -. t.cfg.window) in
     if now > t0 then begin
       let observed = Run_stats.throughput t.stats ~t0 ~t1:now in
       (match t.obs with
       | Some o -> Adept_obs.Gauge.set o.co_window observed
       | None -> ());
       if observed < t.cfg.threshold *. t.predicted_rho then begin
         Run_stats.record_degraded t.stats ~seconds:t.cfg.sample_period;
         (match t.obs with
         | Some o -> Adept_obs.Counter.inc o.co_degraded
         | None -> ());
         (if t.degraded_since = None then t.degraded_since <- Some now);
         match t.cfg.policy with
         | Off -> ()
         | Eager -> consider t ~now ~observed
         | Hysteresis ->
             (match t.degraded_since with
             | Some since when now -. since >= t.cfg.hold_time -. 1e-9 ->
                 consider t ~now ~observed
             | Some _ | None -> ())
       end
       else t.degraded_since <- None
     end
   end);
  if now +. t.cfg.sample_period <= t.horizon then
    Engine.schedule t.engine ~delay:t.cfg.sample_period (tick t)

let create cfg ~engine ~params ~platform ~wapp ~demand ~selection
    ?monitoring_period ~faults ~stats ~trace ?obs ?rtrace ?alerts ~horizon
    ~middleware tree =
  let t =
    {
      cfg;
      engine;
      params;
      platform;
      wapp;
      demand;
      selection;
      monitoring_period;
      faults;
      stats;
      trace;
      horizon;
      middleware;
      retired = [];
      tree;
      predicted_rho = Adept.Evaluate.rho_hetero params ~platform ~wapp tree;
      degraded_since = None;
      last_enact = Float.neg_infinity;
      migration_until = None;
      enacted = [];
      rollout = Rollout.create cfg.rollout;
      staging = None;
      observed_at_trigger = 0.0;
      dead_since = Hashtbl.create 16;
      written_off = Hashtbl.create 16;
      obs = Option.map make_ctrl_obs obs;
      rtrace;
      alerts;
    }
  in
  Engine.schedule engine ~delay:cfg.sample_period (tick t);
  t

let pp_record ppf r =
  Format.fprintf ppf
    "t=%.2fs: %d node(s) out, observed %.2f req/s, rho %.2f -> %.2f, migration %.3fs, %s%s"
    r.at (List.length r.failed) r.observed r.rho_before r.rho_after r.migration_cost
    (Planner.replan_mode_name r.mode)
    (match Planner.replan_fallback_reason r.mode with
    | Some reason -> " (" ^ reason ^ ")"
    | None -> "");
  (match r.bottleneck with
  | Some (node, seconds) ->
      Format.fprintf ppf ", bottleneck node %d (%.3fs on critical path)" node seconds
  | None -> ());
  (match r.alerts with
  | [] -> ()
  | alerts -> Format.fprintf ppf ", alerts [%s]" (String.concat "; " alerts));
  match r.rollout with
  | Some ro ->
      Format.fprintf ppf ", rollout %s (canary %g%%, bake %gs, %d steps)"
        (Rollout.outcome_name ro.Rollout.outcome)
        (100.0 *. ro.Rollout.canary_fraction)
        ro.Rollout.bake_window
        (List.length ro.Rollout.trail)
  | None -> ()
