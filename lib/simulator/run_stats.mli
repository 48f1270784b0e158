(** Measurement collection for simulation runs.

    Memory is bounded: completion times live in a pruned
    {!Adept_obs.Ring} that drops samples older than [retention] behind
    the newest completion (so sliding-window throughput queries are
    O(log n) on a window-sized buffer rather than a scan of the whole
    history), and response-time statistics live in a bounded-memory
    {!Adept_obs.Histogram} (exact count/sum/min/max, percentile
    estimates within 1% relative error).  With [retention = infinity]
    (the default) nothing is pruned and window counts are exact over
    the entire run. *)

open Adept_platform

type t

val create : ?retention:float -> unit -> t
(** [retention] is how far behind the newest completion window queries
    may reach (default [infinity]: keep everything).  Pass the largest
    window any consumer will ask for — the controller's sliding window
    plus its sample period.  @raise Invalid_argument if negative. *)

val record_issue : t -> time:float -> unit
(** A client submitted a scheduling request. *)

val record_completion : t -> issued_at:float -> time:float -> server:Node.id -> unit
(** A client received the service response.  Completion times must be
    non-decreasing (discrete-event order). *)

val record_lost : t -> time:float -> unit
(** A request was abandoned: every scheduling retry timed out, or the
    service phase never answered (fault-injection runs only). *)

val issued : t -> int
val completed : t -> int

val lost : t -> int
(** Abandoned requests; 0 for fault-free runs. *)

val record_degraded : t -> seconds:float -> unit
(** Accumulate time spent below the controller's degradation threshold
    (non-positive durations are ignored). *)

val record_migration_lost : t -> unit
(** A request was issued during a migration window and dropped. *)

val record_replan : t -> unit
(** The controller enacted one replanned hierarchy. *)

val degraded_seconds : t -> float
(** Total simulated time the controller observed throughput below its
    threshold; 0 without a controller. *)

val migration_lost : t -> int
(** Requests dropped because they arrived mid-migration; 0 without a
    controller. *)

val completions_in : t -> t0:float -> t1:float -> int
(** Completions with [t0 <= time < t1].  @raise Invalid_argument if
    [t0] reaches behind the retained history (window larger than
    [retention]). *)

val throughput : t -> t0:float -> t1:float -> float
(** Completions per second over the window.
    @raise Invalid_argument when [t1 <= t0], or as {!completions_in}. *)

val per_server : t -> (Node.id * int) list
(** Completion counts by serving node, ascending id. *)

val mean_response_time : t -> float option
(** Exact (running sum / count). *)

val response_percentile : t -> float -> float option
(** [response_percentile t p] for [p] in [\[0, 100\]]; [None] with no
    completions.  Estimated from the histogram: within 1% relative
    error of the exact percentile. *)

val response_snapshot : t -> Adept_obs.Histogram.snapshot
(** The response-time histogram, for export or merging. *)

val retained_completions : t -> int
(** Completions currently held in the ring (memory proxy for tests). *)
