(** OTLP/JSON export without any OpenTelemetry dependency.

    Renders {!Request_trace} exemplars and {!Registry} snapshots as one
    OTLP/JSON document — [resourceSpans] (resource -> scope -> spans)
    plus [resourceMetrics] (resource -> scope -> metrics) — following
    the OTLP 1.x JSON mapping: trace ids as 32 lowercase hex chars,
    span ids as 16, uint64 nanosecond timestamps as strings, counters
    as cumulative monotonic [sum]s, gauges as [gauge], histograms as
    explicit-bounds [histogram] points carrying the worst-latency
    exemplar's trace id when {!Histogram.record_ex} attached one.

    Deterministic like every other exporter here: identical inputs
    produce byte-identical documents. *)

val trace_id_hex : int -> string
(** A trace id as OTLP's 32 lowercase hex chars. *)

val span_id_hex : trace:int -> span:int -> string
(** A span id as OTLP's 16 lowercase hex chars, unique across the
    export: packs the trace id with the per-trace span index. *)

val document :
  ?resource:(string * string) list ->
  ?conn_of:(int -> int option) ->
  at:float ->
  exemplars:Request_trace.trace list ->
  Registry.family list ->
  string
(** The full export: [{"resourceSpans":[...],"resourceMetrics":[...]}]
    with a trailing newline — what [adept serve --otlp] pushes on every
    scrape and [adept query trace --otlp] dumps on demand. *)
