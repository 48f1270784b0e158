(** Measurement instrumentation: the simulator's stand-in for the paper's
    tcpdump/Ethereal traffic capture and DIET's statistics collection.

    The calibration pipeline (Table 3) reads message sizes and per-element
    processing times from here and fits the [Wrep(d)] linear model exactly
    as the paper fitted real traces.  Messages are recorded at each
    endpoint with that endpoint's role and accounted size, because the
    same logical message costs an agent its agent-level size and a server
    its server-level size (Table 3 has separate rows). *)

type message_kind = Sched_request | Sched_reply | Service_request | Service_reply

type role = Agent_end | Server_end | Client_end

val kind_name : message_kind -> string
(** ["sched-request"] etc. — the label values the observability layer
    uses for the [kind] dimension. *)

val role_name : role -> string
(** ["agent"] / ["server"] / ["client"]. *)

type failure =
  | Node_crash of int  (** The node with this id went down. *)
  | Node_recover of int
  | Message_lost  (** Dropped in transit or delivered to a dead node. *)
  | Request_timeout  (** A client round trip timed out (retry follows). *)
  | Request_abandoned  (** Retry budget exhausted; the request is lost. *)
  | Child_pruned of int * int  (** [(agent, child)]: failover removed the
                                   silent child from the routing tree. *)
  | Child_rejoined of int * int  (** [(agent, child)]: re-registration
                                     after recovery. *)
  | Replan_triggered  (** The controller saw sustained degradation and
                          asked the planner for a new hierarchy. *)
  | Replan_enacted of int list  (** A replanned hierarchy went live; the
                                    list is the failed node ids it
                                    excludes. *)
  | Replan_suppressed of string  (** A trigger was vetoed (cooldown,
                                     insufficient predicted gain, replan
                                     budget, planner error); the string
                                     names the reason. *)

type t

val create : ?tracer:Adept_obs.Tracer.t -> unit -> t
(** [?tracer] mirrors every {!record_failure} breadcrumb into the
    bounded observability tracer as a labeled event, so fault
    timelines export as JSON-lines without retaining this trace's
    unbounded sample lists. *)

val disabled : t
(** A shared sink that records nothing — used by performance-sensitive
    runs. *)

val is_enabled : t -> bool

val tracer : t -> Adept_obs.Tracer.t option
(** The attached observability tracer, for other layers (the
    controller's migration spans) to record into. *)

val record_message : t -> kind:message_kind -> role:role -> size:float -> unit
(** One message observation at one endpoint, size in Mbit. *)

val record_agent_request_compute : t -> seconds:float -> unit
(** Duration of one agent [Wreq] processing step. *)

val record_agent_reply_compute : t -> degree:int -> seconds:float -> unit
(** Duration of one agent reply-aggregation step ([Wrep]) together with
    the agent's degree — the (x, y) samples of the paper's linear fit. *)

val record_server_prediction : t -> seconds:float -> unit
(** Duration of one server [Wpre] step. *)

val record_failure : t -> time:float -> failure -> unit
(** One fault-injection or recovery observation at simulated [time]. *)

val record_recovery_latency : t -> seconds:float -> unit
(** Time from a node's crash to the routing tree healing around it (its
    parent pruning it after the reply timeout). *)

val message_count : t -> message_kind -> role -> int
val mean_message_size : t -> message_kind -> role -> float option
(** Mbit; [None] when no such observation exists. *)

val total_mbit : t -> float
(** Sum over all endpoint observations (each message counted at both
    non-client endpoints). *)

val agent_request_computes : t -> float array
val reply_samples : t -> (int * float) array
(** (degree, seconds) samples for the [Wrep] fit. *)

val server_predictions : t -> float array

val failures : t -> (float * failure) list
(** Chronological failure events (empty for fault-free runs — the
    determinism regression compares these streams). *)

val failure_count : t -> int

val recovery_latencies : t -> float array
