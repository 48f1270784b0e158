(** Request-scoped causal traces of the simulated middleware.

    Every client request is assigned a trace id; on sampled requests the
    middleware records the full Figure-1 causal chain — request descent
    through the agents, SeD prediction, aggregation ascent, the client's
    service submission, server compute and response — as parent-linked
    timed spans.  Spans are recorded {e at completion}, each linking to
    its causal predecessor, so the chain walked backward from the last
    span of a fault-free request is the request's critical path, and the
    segment durations tile: each span starts exactly where its parent
    stopped, and together they cover the whole end-to-end response time.

    Memory stays O(samples): head sampling is a deterministic hash of the
    trace id (same seed, same sampled set — no RNG is consulted), and
    only the slowest [max_traces] finished traces are retained as
    exemplars in a reservoir; evictions are counted in {!dropped} rather
    than silently discarded.  Per-element critical-path aggregates are
    accumulated at finish time for every sampled trace, retained or not.

    Recording is observation-only: no events are scheduled and no random
    state is drawn, so simulation results are identical with the store
    attached, sampled at 0, or absent. *)

type message =
  | Submit  (** Client → root scheduling request. *)
  | Forward  (** Agent → child request descent. *)
  | Reply  (** Child → agent prediction ascent. *)
  | Answer  (** Root → client scheduling answer. *)
  | Service_request  (** Client → selected server. *)
  | Service_reply  (** Server → client response. *)

type step =
  | Wreq  (** Agent request processing, Eq. 3. *)
  | Wrep  (** Agent reply aggregation [Wrep(d)], Eq. 3. *)
  | Wpre  (** Server prediction, Eq. 4. *)
  | Service  (** Server application execution, Eq. 5. *)

(** Stages of one planning-server request (the wall-clock serving path,
    in causal order).  Stage spans use node -1 (the serving process),
    except [Shard_plan] spans, which carry a shard index. *)
type stage =
  | Frame_read  (** Socket read until the frame completed. *)
  | Parse  (** JSON decode of the request envelope. *)
  | Cache_lookup  (** Plan-fragment cache probe. *)
  | Shard_plan
      (** A per-shard hint computation.  Servers no longer record it;
          it stays so that journals written by older servers decode
          (stage code 3). *)
  | Replay  (** The plan itself ([Planner.run]) on a worker domain. *)
  | Render_reply  (** Formatting the reply text. *)
  | Write_reply  (** Frame write back to the client. *)

type kind =
  | Send of message  (** Sender-side port time (queue wait included). *)
  | Wire of message  (** Link latency between the two ports. *)
  | Recv of message  (** Receiver-side port time (queue wait included). *)
  | Compute of step  (** A booked or charged computation. *)
  | Stage of stage  (** A planning-server request stage (wall clock). *)

val kind_name : kind -> string
(** Stable [send.submit] / [compute.wrep] style names (used by the
    exporters and goldens). *)

val kind_code : kind -> int
(** A stable one-byte wire code for a kind (the flight recorder persists
    spans).  Inverse of {!kind_of_code}. *)

val kind_of_code : int -> kind option
(** Decode a {!kind_code}; [None] on bytes no current kind produces. *)

type span = {
  sp_id : int;  (** Dense per-trace index, in completion order. *)
  sp_parent : int;  (** Causal predecessor's [sp_id]; -1 for chain heads. *)
  sp_kind : kind;
  sp_node : int;  (** Platform node id; -1 for the client machine/wire. *)
  sp_start : float;
  sp_stop : float;
}

type trace = {
  tr_id : int;
  tr_issued : float;
  tr_finished : float;
  tr_spans : span array;  (** Completion order; [sp_id] indexes it. *)
}

val duration : trace -> float

val critical_path : trace -> span list
(** The parent chain walked back from the last-completed span, returned
    head-first.  On fault-free traces this is the request's critical
    path and the segments tile the whole [tr_issued .. tr_finished]
    interval; under fault injection chains can break (a patience-timer
    finalisation has no causal reply) and the walk covers the surviving
    suffix. *)

type t

val create : ?sample_rate:float -> ?max_traces:int -> ?max_spans:int -> unit -> t
(** [sample_rate] (default 1.0, clamped to [0, 1]) is the fraction of
    trace ids sampled, decided by a deterministic hash of the id;
    [max_traces] (default 32, >= 1) bounds the slowest-N exemplar
    reservoir; [max_spans] (default 4096, >= 1) caps spans per trace —
    an overflowing trace stops recording and counts as dropped. *)

val would_sample : t -> int -> bool
(** The head-sampling decision for a trace id — pure and deterministic:
    a hash of the id compared against [sample_rate]. *)

(** {1 Recording (used by the simulator)} *)

type handle
(** One in-flight sampled request. *)

val begin_request : t -> now:float -> handle option
(** Assign the next trace id (ids advance for unsampled requests too, so
    the sampled id set is independent of the rate) and open a handle if
    the id is sampled. *)

val begin_with_id : t -> id:int -> now:float -> handle option
(** Open a handle for an externally assigned trace id — the serving
    path, where the id travels inside the request envelope.  Sampling
    is the same deterministic hash as {!begin_request}; the internal id
    sequence does not advance. *)

val trace_id : handle -> int

val add_span :
  t ->
  handle ->
  parent:int ->
  kind:kind ->
  node:int ->
  start:float ->
  stop:float ->
  int
(** Record a completed span and return its id (the parent for the next
    chain link).  Past [max_spans] the trace is poisoned: the span is
    discarded, [parent] is returned, and {!finish} will drop the trace. *)

val span_count : handle -> int
(** Spans recorded on the handle so far (per-connection aggregation). *)

val set_tail : handle -> int -> unit

val tail : handle -> int
(** A parking spot for the chain position between the scheduling and
    service phases: the root's answer delivery stores its last span id
    here and the service phase resumes from it.  -1 until set. *)

val finish : t -> handle -> now:float -> unit
(** The request completed: close the trace, accumulate its critical path
    into the per-element aggregates, and offer it to the slowest-N
    reservoir (evicting the fastest retained trace, counted in
    {!dropped}).  Overflowed traces are dropped instead. *)

val finish_trace : t -> handle -> now:float -> trace option
(** {!finish} that also returns the built trace ([None] when the handle
    overflowed and was dropped) — the serving path hands it to the
    flight recorder. *)

val restore : t -> trace -> unit
(** Re-admit a recorded trace (flight-recorder replay): counts as
    finished, accumulates its critical path, and offers it to the
    reservoir — replaying finishes in their original order rebuilds the
    live store's exact reservoir and drop counts. *)

val abandon : t -> handle -> unit
(** The request failed (fault runs): count it, record nothing. *)

(** {1 Inspection} *)

val requests_seen : t -> int
(** Trace ids assigned, sampled or not. *)

val sampled : t -> int
(** Handles opened. *)

val finished : t -> int

val dropped : t -> int
(** Finished sampled traces not retained as exemplars: reservoir
    evictions plus span-overflow drops — the bounded-buffer truncation
    made visible. *)

val dropped_spans : t -> int
(** Spans discarded past [max_spans]. *)

val exemplars : t -> trace list
(** Retained traces, slowest first (ties by lower trace id). *)

type agg = {
  ag_node : int;  (** -1 = client machine / wire. *)
  ag_kind : kind;
  ag_seconds : float;  (** Total time on sampled critical paths. *)
  ag_count : int;  (** Segments contributing. *)
}

val aggregates : t -> agg list
(** Per-(node, kind) critical-path time across every finished sampled
    trace (not just retained exemplars), sorted by node then kind. *)

val hottest_element : t -> (int * float) option
(** The platform element (node id >= 0) with the most critical-path
    seconds so far, with that total — the measured bottleneck fed into
    controller replan breadcrumbs.  [None] before any trace finished. *)
