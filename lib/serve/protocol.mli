(** Typed requests and responses for the planning service.

    The shapes mirror the batch CLI's flags one-to-one, so a [query]
    answer can be diffed bit-for-bit against the corresponding batch
    command: a platform is either the synthetic-generator parameters or
    an inline catalog text, and the workload/demand/strategy fields
    carry the same defaults as the CLI arguments.

    Codecs are total: [decode_request (encode_request e)] recovers [e]
    exactly, and likewise for replies — the parse/print fixpoint the
    protocol tests pin. *)

type platform_spec =
  | Synthetic of {
      nodes : int;
      power : float;
      bandwidth : float;
      heterogeneous : bool;
      seed : int;
    }
  | Catalog of string
      (** Catalog text, inline — not a path; the server may run on
          another machine. *)

type plan_params = {
  spec : platform_spec;
  dgemm : int;
  demand : float option;  (** [None] = unbounded *)
  strategy : string;
  use_cache : bool;
      (** [false] bypasses the plan-fragment cache (cold benchmarks). *)
}

type replan_params = {
  r_spec : platform_spec;
  r_dgemm : int;
  r_demand : float option;
  r_strategy : string;
  r_failed : int list;
}

type observe_params = {
  o_spec : platform_spec;
  o_dgemm : int;
  o_demand : float option;
  o_strategy : string;
  o_seed : int;  (** simulation seed (the CLI reuses --seed for this) *)
  o_clients : int;
  o_warmup : float;
  o_duration : float;
}

type request =
  | Plan of plan_params
  | Replan of replan_params
  | Observe of observe_params
  | Stats
  | Trace_dump
      (** Dump the server's sampled-trace reservoir as Chrome-trace
          JSON.  Observability read path: never touches planning state. *)
  | Otlp_dump
      (** Dump the reservoir and a registry snapshot as one OTLP/JSON
          document ({!Adept_obs.Otlp}).  Observability read path. *)

type envelope = { id : int; trace : int option; request : request }
(** [trace] is the optional trace context: a client-generated trace id
    the server head-samples deterministically.  Old clients never send
    it (absent member, not null) and old servers ignore it, so the
    field is backward- and forward-compatible on the same wire. *)

type error_kind =
  | Parse_error  (** payload is not valid JSON *)
  | Invalid_request  (** JSON but not a request envelope *)
  | Unknown_method of string
  | Invalid_params of string
  | Plan_failed of string  (** planner/simulator returned a typed error *)

type conn_stats = {
  conn_id : int;
  conn_requests : int;  (** traced requests finished on this connection *)
  conn_spans : int;
  conn_seconds : float;  (** wall-clock seconds inside those requests *)
}
(** Per-connection trace aggregation: what each connection contributed
    to the sampled-span stream since it was accepted. *)

type live_stats = {
  uptime_seconds : float;
  latency_p50 : float;  (** request wall-clock seconds, this process *)
  latency_p99 : float;
  cache_hit_ratio : float;
  gc_pause_p99 : float;
  domain_busy : float list;  (** per worker domain, last scrape interval *)
  traces_sampled : int;
  firing_alerts : (string * string) list;  (** (rule name, severity) *)
  connections : conn_stats list;
      (** Connections that finished traced requests, by connection id.
          Encoded as an absent member when empty, so the wire shape
          predating per-connection aggregation is unchanged. *)
}
(** Wall-clock observability snapshot.  Non-finite floats are clamped
    to 0 at the codec boundary (JSON has no representation for them). *)

type server_stats = {
  plan_requests : int;
  replan_requests : int;
  observe_requests : int;
  stats_requests : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
  coalesced : int;
  workers : int;
  live : live_stats option;
}
(** Deterministic counters, plus a [live] wall-clock block present only
    when the server runs with live observability on — with it off, a
    [stats] exchange is byte-reproducible and can sit in a golden
    transcript. *)

type response =
  | Plan_ok of { text : string; rho : float; nodes_used : int; cached : bool }
  | Replan_ok of { text : string; rho_after : float }
  | Observe_ok of { text : string; throughput : float }
  | Stats_ok of server_stats
  | Trace_ok of { chrome : string }
      (** Chrome-trace JSON for the sampled slowest requests. *)
  | Otlp_ok of { otlp : string }
      (** One OTLP/JSON document: spans + metrics at dump time. *)
  | Error of error_kind

type reply = { reply_id : int; response : response }

val encode_request : envelope -> string
val encode_reply : reply -> string

val spec_digest : platform_spec -> string
(** Hex digest of the spec's canonical encoding — the platform identity
    the plan cache keys on and replan invalidation targets.  Equal specs
    always digest equally (member order is deterministic). *)

val demand_error : float option -> string option
(** Why a demand is out of range: it must be a positive, finite rate
    ([None] is unbounded).  The batch CLI and {!decode_request} share
    this rule. *)

val clients_error : int -> string option
(** Why a closed-loop client population is out of range (below 1). *)

type decoded =
  | Request of envelope
  | Bad of int option * error_kind
      (** Undecodable payload, with the request id when one could still
          be read (so the error response can echo it). *)

val decode_request : string -> decoded

val decode_reply : string -> (reply, string) result

val error_kind_fields : error_kind -> string * string
(** Wire [kind] tag and human message. *)
