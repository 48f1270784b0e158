(** Exporters: render a registry snapshot in standard formats.

    All three renderers are deterministic — families sorted by name,
    series by label set, histogram buckets by bound, floats formatted
    with a stable scheme — so identical runs export byte-identical
    documents (relied on by the golden tests). *)

val float_repr : float -> string
(** Stable float rendering: integers as ["42"], everything else with
    [%.12g]; [infinity] as ["+Inf"] (Prometheus spelling). *)

val prometheus : Registry.family list -> string
(** Prometheus text exposition format (version 0.0.4): [# HELP] /
    [# TYPE] headers, histograms as cumulative [_bucket{le="..."}]
    series plus [_sum] and [_count]. *)

val jsonl : Registry.family list -> string
(** One JSON object per line per series.  Counters and gauges carry
    ["value"]; histograms carry ["count"], ["sum"], ["min"], ["max"]
    and ["buckets"] (cumulative [{"le": ..., "count": ...}]). *)

val csv : Registry.family list -> Adept_util.Csv.t
(** Flat table [metric,labels,stat,value]: counters/gauges get one
    [value] row; histograms get [count], [sum], [mean], [p50], [p95],
    [p99] and [max] rows. *)

val alert_timeline_entries :
  (float * string * string * string * float) list -> string
(** The alert-timeline line emitter on raw [(at, alert, severity,
    state, value)] tuples — shared by {!alert_timeline_jsonl} and the
    flight-recorder replay, which feeds it journalled transitions, so
    live and replayed timelines are byte-identical. *)

val transition_entry : Alert.transition -> float * string * string * string * float
(** A transition as an {!alert_timeline_entries} tuple (state rendered
    as ["pending"] / ["firing"] / ["resolved"]). *)

val alert_timeline_jsonl : Alert.t -> string
(** The chronological alert transition log, one JSON object per line:
    [{"at":...,"alert":...,"severity":...,"state":"pending"|"firing"|
    "resolved","value":...}].  Deterministic — identical runs export
    byte-identical timelines (golden-pinned). *)

val alerts_prom : Alert.t -> string
(** The transition log as Prometheus [ALERTS]-style samples with
    millisecond timestamps: value [1] on entering a state, [0] on
    leaving [firing], labelled [alertname] / [alertstate] /
    [severity]. *)

val chrome_trace_spans :
  exemplars:Request_trace.trace list ->
  requests:int ->
  sampled:int ->
  finished:int ->
  dropped:int ->
  dropped_spans:int ->
  string
(** {!chrome_trace} on explicit parts: the exemplar list (slowest
    first) and the [otherData] counters.  The flight-recorder replay
    renders through this with reconstructed parts to reproduce the live
    document byte-for-byte. *)

val chrome_trace : Request_trace.t -> string
(** The store's exemplar traces as Chrome trace-event JSON
    (Perfetto-loadable): one process per retained request, one thread
    per element ([tid 0] = client machine / wire), one complete ["X"]
    event per span with microsecond timestamps, tagged with its parent
    and critical-path membership; [otherData] carries the request,
    sample and dropped counters.  Deterministic — identical stores
    export byte-identical documents (golden-pinned). *)
