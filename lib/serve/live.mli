(** Wall-clock observability for a serving process ([adept serve
    --live] and the [live] block of the [stats] reply).

    Everything the server does only when observability is on lives
    here: head-sampled request spans in a slowest-N
    {!Adept_obs.Request_trace} reservoir, per-connection aggregation,
    the JSONL access log, the {!Adept_obs.Journal} flight recorder,
    the scrape tick (runtime GC pauses, domain busy ratios, a bounded
    {!Adept_obs.Timeseries}, alert rules, the Prometheus file) and the
    OTLP export.  The event loop reaches it through a handful of calls:
    {!admit} a decoded request, mark a {!stage}, {!reply} around the
    reply write, {!dump} the traces, {!tick}, {!close}.

    The hard invariant: observability never changes answers.
    Responses are byte-identical with it on or off, and trace sampling
    is a deterministic hash of the client-sent trace id (no RNG). *)

(** Where the scrape-cadence OTLP push goes: an atomically-rewritten
    file, or one short-lived TCP connection per push. *)
type otlp_sink = Otlp_file of string | Otlp_tcp of string * int

val otlp_sink_of_string : string -> (otlp_sink, string) result
(** ["tcp:<host>:<port>"], or any other non-empty string as a file
    path. *)

type config = {
  clock : Adept_obs.Clock.t;
      (** The one [now] provider for spans, scrapes, alerts and the
          access log.  [Clock.source Unix.gettimeofday] for real
          serving; a manual clock turns the scrape loop event-driven
          (deterministic tests). *)
  trace_sample_rate : float;  (** Fraction of trace ids sampled, [0, 1]. *)
  trace_slowest : int;  (** Slowest-N exemplar traces retained. *)
  rules : Adept_obs.Rule.t list;  (** Alert rules over the serve metrics. *)
  scrape_interval : float;  (** Seconds between registry scrapes. *)
  retention : float;  (** Time-series retention window, seconds. *)
  access_log : string option;  (** JSONL per-request log path (append). *)
  prom_path : string option;
      (** Re-written atomically on every scrape and at teardown, so an
          external scraper (or CI) can read a mid-run snapshot. *)
  runtime_events : bool;
      (** Consume the OCaml runtime's event ring into
          [adept_runtime_gc_pause_seconds]. *)
  journal_dir : string option;
      (** Flight-recorder directory ({!Adept_obs.Journal}); [None]
          disables the recorder.  A failed open logs a warning and
          serves without it — recording never blocks serving. *)
  journal_segment_bytes : int;  (** Rotate segments past this size. *)
  journal_max_segments : int;  (** Oldest segments pruned beyond this. *)
  otlp : otlp_sink option;
      (** Push an OTLP/JSON document (spans + metrics) on every scrape
          tick and at teardown; export failures warn and continue. *)
}

val default : unit -> config
(** Wall clock, sample everything, 32 exemplars, {!default_rules}, 1 s
    scrapes, 300 s retention, no access log, no scrape file, runtime
    events on, no flight recorder (4 MiB × 8 segments when enabled),
    no OTLP sink. *)

val default_rules : unit -> Adept_obs.Rule.t list
(** The built-in alert rules: p99 latency, queue depth, cache hit-ratio
    floor, and a two-window cache miss burn rate. *)

type t

val create :
  config -> registry:Adept_obs.Registry.t -> pool:Domain_pool.t ->
  cache:Cache.t -> t
(** Open the access log and the journal (writing its [Meta] record)
    and start the runtime-event consumer.  Raises [Invalid_argument]
    on an invalid rule set. *)

val now : t -> float
(** The clamped event-loop clock. *)

val timeout : t -> float -> float
(** [timeout t cap]: how long the event loop may sleep — [cap], cut to
    the next scrape when the clock is the wall (manual clocks are
    driven by events, not the wall). *)

(** {1 Requests} *)

type req
(** One decoded request's observability context: its connection, the
    client-sent trace id, the instant its first bytes arrived and, when
    sampled, its span chain. *)

val admit :
  t -> conn:int -> frame_start:float -> parse_start:float -> int option -> req
(** A request carrying the given trace id was decoded.  [frame_start]
    is the arrival of its first bytes ([nan] when they came with an
    earlier frame, which starts it at [parse_start]).  A sampled
    request gets its frame-read and parse spans; any traced one is
    journalled. *)

val sampled : req -> int option
(** The trace id, when the request was sampled (histogram exemplars). *)

val prof : req -> Prof.t option
(** A worker-side stage profiler, for sampled requests only. *)

val stage : req -> Adept_obs.Request_trace.stage -> start:float -> unit
(** Append a span from [start] to now to a sampled request's chain
    (a no-op, with no clock read, for an unsampled one). *)

val reply :
  req -> ?prof:Prof.t -> method_:string -> digest:string option ->
  cache:bool option -> ok:bool -> (unit -> unit) -> unit
(** Run the reply write: the worker's [prof] samples become spans, the
    write gets its own span, the trace finishes into the reservoir and
    its connection's aggregate, and the access line (status [ok] or
    [error]) is logged and journalled. *)

val dump : t -> open_conns:int -> [ `Chrome | `Otlp ] -> Protocol.response
(** A journalled dump marker, then the retained traces as a Chrome
    trace or an OTLP/JSON document. *)

(** {1 Scrapes} *)

val stats : t -> Protocol.live_stats
(** The [live] block of a [stats] reply. *)

val tick :
  t -> sync:(unit -> Protocol.server_stats) -> inflight:int ->
  open_conns:int -> unit
(** When a scrape is due: [sync] the registry's cache counters and
    read the protocol counters, scrape the registry, advance the
    alerts, then rewrite the Prometheus file, journal the scrape (the
    [sync] counters plus the {!stats} block) and push OTLP. *)

val close :
  t -> sync:(unit -> Protocol.server_stats) -> inflight:int ->
  open_conns:int -> unit
(** Force a final {!tick}, so a server that drains before its first
    scrape still exports the drained state, then close the access log
    and the journal. *)
