(** Log-linear-bucket histograms with bounded memory and a provable
    relative-error bound on quantile estimates.

    This is the DDSketch construction: for a relative accuracy
    [alpha], let [gamma = (1 + alpha) / (1 - alpha)].  Bucket [i]
    covers the interval [(gamma^(i-1), gamma^i]], so any value [v] in
    the bucket satisfies [|est - v| <= alpha * v] when the estimate is
    the bucket midpoint [2 * gamma^i / (1 + gamma)].

    Values are clamped to [[min_value, max_value]]; values strictly
    below [min_value] (including zero and negatives) fall into a
    dedicated underflow bucket and are estimated as [min_value].  With
    the defaults ([alpha = 0.01], range [1e-9 .. 1e9]), at most ~2100
    buckets can ever exist, so memory is O(1) in the number of
    recorded values.

    Two histograms with the same [alpha] can be merged; merging the
    snapshots of shards is equivalent to recording the union of their
    streams into one histogram (associative and commutative). *)

type t

val create : ?alpha:float -> ?min_value:float -> ?max_value:float -> unit -> t
(** Defaults: [alpha = 0.01], [min_value = 1e-9], [max_value = 1e9].
    @raise Invalid_argument unless [0 < alpha < 1] and
    [0 < min_value < max_value]. *)

val record : t -> float -> unit
(** O(1).  NaN is ignored. *)

val record_ex : t -> float -> trace_id:int -> unit
(** [record] plus exemplar attachment: the histogram keeps the single
    largest [(value, trace_id)] pair it has seen, so an OTLP export can
    point at the trace behind the worst latency.  NaN is ignored. *)

(** {1 Snapshots} *)

type snapshot
(** An immutable, mergeable summary: sorted bucket counts plus exact
    running [count], [sum], [min] and [max]. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** @raise Invalid_argument if the two snapshots were built with
    different [alpha] (their buckets would not line up). *)

val count : snapshot -> int

val sum : snapshot -> float

val mean : snapshot -> float option

val min_recorded : snapshot -> float option

val max_recorded : snapshot -> float option

val exemplar : snapshot -> (float * int) option
(** The largest [(value, trace_id)] recorded via {!record_ex}, if any.
    [merge] keeps the larger of the two sides' exemplars. *)

val quantile : snapshot -> float -> float option
(** [quantile s q] for [q] in [[0, 100]]: an estimate [est] of the
    [q]-th percentile with [|est - exact| <= alpha * exact] for values
    inside the clamp range.  [None] on an empty snapshot.
    @raise Invalid_argument if [q] is outside [[0, 100]]. *)

val num_buckets : snapshot -> int
(** Number of distinct occupied buckets (memory proxy). *)

val cumulative_buckets : snapshot -> (float * int) list
(** Prometheus-style cumulative buckets: [(upper_bound, cumulative
    count)] pairs in increasing bound order over the {e occupied}
    buckets, ending with [(infinity, count)].  Upper bound of bucket
    [i] is [gamma^i]; the underflow bucket reports bound
    [min_value]. *)
