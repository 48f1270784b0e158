(** Simulated DIET-style middleware: a deployed hierarchy executing the
    two phases of Figure 1.

    Scheduling phase: the client's request enters the root agent, which
    books [Wreq], forwards down to every child, collects one reply per
    child, books [Wrep(d)], and answers up; servers book [Wpre] and reply
    with a performance prediction.  Service phase: the client contacts the
    selected server directly; the server books [Wapp] and responds.  Every
    computation and both ends of every message occupy the owning node's
    single port (see {!Resource}).

    Fault injection (optional, via {!Faults}): nodes crash and recover on
    a schedule, messages drop, links degrade.  Crashed nodes lose queued
    work and in-flight state; clients supervise the scheduling round trip
    with timeout and exponential-backoff retries; agents wait out a
    patience window per request, answer with the replies that arrived, and
    prune children that stay silent (failover), re-adopting them when they
    re-register after recovery.  A child pruned while it is alive — its
    recovery raced the strike window, or an agent was struck out because
    every child below it was down at once — notices on its next heartbeat
    and re-registers after a short fixed delay, so failover never
    permanently detaches a living element.  With {!Faults.none} every
    fault code path is bypassed and runs are bit-for-bit identical to
    pre-fault behaviour. *)

open Adept_platform

type selection =
  | Best_prediction
      (** DIET's policy with fresh monitoring: smallest predicted
          completion from the server's current state. *)
  | Round_robin  (** Each agent cycles through its children. *)
  | Random_child of Adept_util.Rng.t  (** Uniform child choice per agent. *)
  | Database
      (** Selection from the monitoring database (the paper's footnote 1:
          "a list of servers maintained in the database by frequent
          monitoring"): servers push load reports every
          [monitoring_period] seconds, each report costing its message
          transfer at both ends, and decisions use the last report —
          decayed by the time since — instead of fresh state.  Requires
          [monitoring_period]. *)

type fault_stats = {
  crashes : int;
  recoveries : int;
  messages_lost : int;  (** Dropped in transit or delivered to a corpse. *)
  timeouts : int;  (** Scheduling round trips that timed out and retried. *)
  abandoned : int;
      (** Requests given up on: retry budget exhausted or the service
          phase never answered. *)
  prunes : int;  (** Children removed from the routing tree by failover. *)
  rejoins : int;  (** Children re-adopted after recovery. *)
  recovery_latencies : float list;
      (** Seconds from each crash to its parent-side prune, in prune
          order. *)
}

type t

val deploy :
  ?trace:Trace.t ->
  ?obs:Adept_obs.Registry.t ->
  ?rtrace:Adept_obs.Request_trace.t ->
  ?selection:selection ->
  ?monitoring_period:float ->
  ?faults:Faults.t ->
  ?initial_dead:(Node.id * float) list ->
  engine:Engine.t ->
  params:Adept_model.Params.t ->
  platform:Platform.t ->
  Adept_hierarchy.Tree.t ->
  t
(** Instantiate resources for every node of the hierarchy.  The hierarchy
    must validate against the platform.  [obs] attaches the metrics
    registry: message counters by kind/role, per-node histograms of the
    booked compute steps ([Wreq], [Wrep(d)], [Wpre], service), observed
    server backlog at prediction time, and per-agent in-flight gauges —
    labeled by node id and hierarchy level.  Instrumentation only
    observes work the simulation already performs (it schedules no
    events), so runs are bit-identical with and without it; series are
    get-or-create, so a redeployed generation keeps accumulating into
    the same series.  [monitoring_period] (seconds,
    positive) starts the periodic load reports and is required by the
    [Database] selection.  [faults] (default {!Faults.none}) installs the
    crash/recovery schedule; fault events naming nodes outside the
    hierarchy, or scheduled before the engine's current time (a redeploy
    mid-run only sees what is still to come), are ignored.
    [initial_dead] (default empty; requires fault injection) seeds
    liveness for a hierarchy deployed mid-run: each [(node, crashed_at)]
    starts dead as of [crashed_at] — failover strikes it out, a pending
    recovery event revives it — without re-counting the crash the
    previous generation already recorded.  Entries naming nodes outside
    the hierarchy are ignored.
    [rtrace] attaches the per-request causal trace store: on sampled
    requests (see {!Adept_obs.Request_trace}) every Figure-1 hand-off —
    the three legs of each message, [Wreq], [Wpre], [Wrep(d)] and the
    service execution — is recorded as a parent-linked span.  Like
    [obs], tracing schedules no events and draws no random state, so
    runs are bit-identical with it attached, sampled at 0, or absent.
    @raise Invalid_argument otherwise. *)

val submit :
  t ->
  wapp:float ->
  ?rt:Adept_obs.Request_trace.handle ->
  ?on_failed:(unit -> unit) ->
  on_scheduled:(server:Node.id -> unit) ->
  unit ->
  unit
(** Inject one scheduling request at the root (from an [Instant] client
    endpoint); [on_scheduled] fires when the client receives the reply
    naming the selected server.  Under fault injection the round trip is
    supervised: on timeout the request is re-submitted with exponential
    backoff up to [max_retries] times, then [on_failed] fires (exactly one
    of the two callbacks runs).  Fault-free, [on_failed] never fires.
    [rt] (meaningful only with the deploy-time [rtrace]) is the request's
    open trace handle; the scheduling phase records its spans on it and
    parks the chain position for {!request_service} to resume. *)

val request_service :
  t ->
  server:Node.id ->
  ?rt:Adept_obs.Request_trace.handle ->
  ?on_failed:(unit -> unit) ->
  wapp:float ->
  on_done:(unit -> unit) ->
  unit ->
  unit
(** The service phase: direct client→server request of [wapp] MFlop.
    Under fault injection the phase is supervised by the schedule's
    [service_timeout]; if the response has not arrived by then [on_failed]
    fires and a late response is discarded (exactly one callback runs).
    [rt] continues the causal chain of the same handle passed to
    {!submit}.
    @raise Invalid_argument if [server] is not a server of the
    hierarchy. *)

val fault_stats : t -> fault_stats
(** Snapshot of the fault counters (all zero on fault-free runs). *)

val merge_fault_stats : fault_stats -> fault_stats -> fault_stats
(** Componentwise sum (latency lists concatenated in argument order) —
    aggregates the counters of successive hierarchy generations when a
    controller redeploys mid-run. *)

val is_alive : t -> Node.id -> bool
(** Whether the node is currently up (always [true] fault-free). *)

val alive_count : t -> int
(** Deployed elements (agents + servers) currently alive — the
    monitor's [adept_alive_nodes] gauge. *)

val crash_time : t -> Node.id -> float
(** When the node last went down (inherited across generations via
    [initial_dead]); meaningful only while [is_alive] is [false]. *)

val retire : t -> unit
(** Mark this hierarchy as superseded by a newer generation.  A retired
    middleware keeps draining its in-flight requests and keeps tracking
    node liveness (fault events still update it), but stops recording
    topology events — crashes, recoveries, prunes, rejoins — in its
    counters and trace, so that a run with several generations counts each
    event exactly once (in the generation that was current when it
    fired).  Request-outcome events (timeouts, abandons) of its own
    in-flight work are still recorded. *)

val set_recording : t -> bool -> unit
(** Flip the topology-event recording bit {!retire} clears.  A canary
    generation deploys and is immediately muted with
    [set_recording t false] — while it bakes, the generation still in
    charge is the one witness of every crash/recovery — and is flipped
    back on when the rollout promotes it. *)

val is_deployed : t -> Node.id -> bool
(** Whether the node is part of this hierarchy (has a deployed element).
    {!is_alive} and {!crash_time} are only meaningful for deployed nodes:
    a node outside the hierarchy is invisible to this generation's fault
    handling, so its liveness must be derived from the fault schedule
    instead. *)

val resource : t -> Node.id -> Resource.t
(** The simulated port of a deployed node.
    @raise Not_found for nodes outside the hierarchy. *)

val root : t -> Node.id
val server_ids : t -> Node.id list
val agent_ids : t -> Node.id list
