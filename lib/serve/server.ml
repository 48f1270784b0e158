(* The planning server: one event-loop domain multiplexing connections
   with [Unix.select], a {!Domain_pool} of worker domains doing the
   planning/simulation, and a {!Cache} of finished plan answers.

   Life of a request:

   - bytes accumulate in the connection's incremental {!Wire.reader};
   - a complete frame is decoded ({!Protocol.decode_request});
     undecodable payloads get a typed error reply and the connection
     lives on — only a corrupt {e framing} layer (oversized length
     prefix, EOF mid-frame) kills the connection, because past that
     point the stream offset is unrecoverable;
   - [stats] and plan cache hits are answered inline (they are O(1));
     everything else becomes a task on the worker pool, tracked in the
     in-flight table.  A plan request identical to one already in
     flight (same spec digest, strategy, workload, demand) does not
     plan again: it joins the existing entry's waiter list and is
     answered by the same computation — request {e batching} by
     coalescing;
   - workers signal completion through a self-pipe (one byte), which
     wakes the select; the event loop then writes every waiter's reply
     and, for plans, stores the answer in the cache — cache and
     counters are touched only from the event-loop domain, so they need
     no locks;
   - a replan request reports node deaths, so its completion
     invalidates every cached plan for that platform digest.

   Wall-clock observability is opt-in ([config.obs]).  When on, the
   event loop additionally: head-samples request spans (frame read →
   parse → cache lookup → replay → render → write)
   into a {!Adept_obs.Request_trace} slowest-N reservoir, consumes the
   OCaml runtime's event ring into GC-pause histograms, scrapes the
   registry into a bounded {!Adept_obs.Timeseries} on a wall-clock tick
   and evaluates alert rules over it, and appends a JSONL access log.
   The hard invariant: observability never changes answers.  Requests
   are parsed, planned, cached and answered identically with [obs]
   absent, and sampling is a deterministic hash of the client-sent
   trace id (no RNG is consulted).  With [obs = None] nothing but
   requests and worker completions wakes the loop (plus an idle tick
   that only rechecks the stop flag), so golden transcripts of an
   untraced server stay byte-identical.

   Draining: on SIGINT/SIGTERM (or after [max_requests] dispatches) the
   listener closes, in-flight work finishes and is answered, then
   connections close and [run] returns.  A long-lived planner should
   die with an empty in-flight table, not mid-bisection. *)

module Label = Adept_obs.Label
module Semconv = Adept_obs.Semconv
module Rt = Adept_obs.Request_trace
module Clock = Adept_obs.Clock

type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Ok (Unix_socket (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error "tcp address needs host:port"
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
          | _ -> Error ("invalid port: " ^ port)))
  | _ ->
      (* A bare path is a Unix socket — the common local case. *)
      if s = "" then Error "empty address" else Ok (Unix_socket s)

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ---------- observability configuration ---------- *)

(* Signals chosen to cover the monitoring taxonomy over the serve
   metrics: a latency threshold with a [for:] hold, a queue-depth
   threshold, a hit-ratio floor, and a two-window miss burn rate. *)
let default_rules_text =
  "# Default serve alerting rules (see docs/OBSERVABILITY.md).\n\
   alert serve_latency_p99_high severity=warning for=3 when \
   p99(adept_serve_request_seconds) > 0.5\n\
   alert serve_queue_deep severity=warning for=3 when \
   last(adept_serve_inflight_requests) > 64\n\
   alert serve_cache_hit_ratio_low severity=warning for=5 when \
   last(adept_serve_cache_hit_ratio) < 0.5\n\
   alert serve_cache_miss_burn severity=critical when \
   min(rate(adept_serve_cache_misses_total[10]), \
   rate(adept_serve_cache_misses_total[60])) > 50\n"

let default_rules () =
  match Adept_obs.Rule.parse default_rules_text with
  | Ok rules -> rules
  | Error msg -> invalid_arg ("serve: default rules do not parse: " ^ msg)

type otlp_sink = Otlp_file of string | Otlp_tcp of string * int

let otlp_sink_of_string s =
  if String.length s > 4 && String.sub s 0 4 = "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error "otlp tcp sink needs tcp:host:port"
    | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Otlp_tcp (host, p))
        | _ -> Error ("invalid port: " ^ port))
  end
  else if s = "" then Error "empty otlp sink"
  else Ok (Otlp_file s)

let otlp_sink_to_string = function
  | Otlp_file path -> path
  | Otlp_tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type obs_config = {
  clock : Clock.t;
  trace_sample_rate : float;
  trace_slowest : int;
  rules : Adept_obs.Rule.t list;
  scrape_interval : float;
  retention : float;
  access_log : string option;
  prom_path : string option;
  runtime_events : bool;
  journal_dir : string option;
  journal_segment_bytes : int;
  journal_max_segments : int;
  otlp : otlp_sink option;
}

let default_obs () =
  {
    clock = Clock.source Unix.gettimeofday;
    trace_sample_rate = 1.0;
    trace_slowest = 32;
    rules = default_rules ();
    scrape_interval = 1.0;
    retention = 300.0;
    access_log = None;
    prom_path = None;
    runtime_events = true;
    journal_dir = None;
    journal_segment_bytes = 4 * 1024 * 1024;
    journal_max_segments = 8;
    otlp = None;
  }

(* The one [max_spans] the serving trace store uses — persisted in the
   journal's [Meta] record so replay rebuilds an identical store. *)
let trace_max_spans = 4096

type config = {
  address : address;
  workers : int option;  (** worker domains; default [recommended - 1] *)
  cache_capacity : int;
  max_requests : int option;  (** drain after this many dispatches *)
  registry : Adept_obs.Registry.t option;
  obs : obs_config option;
}

let default_config address =
  {
    address;
    workers = None;
    cache_capacity = 128;
    max_requests = None;
    registry = None;
    obs = None;
  }

(* ---------- connections ---------- *)

type conn = {
  c_id : int;  (** accept-order connection id, 1-based *)
  fd : Unix.file_descr;
  reader : Wire.reader;
  mutable alive : bool;
  mutable frame_start : float;
      (** Wall instant the current partial frame's first bytes arrived;
          [nan] when no read has happened since the last frame (only
          maintained when observability is on). *)
}

type work_result =
  | W_plan of (Cache.entry, string) result
  | W_replan of (string * float, string) result
  | W_observe of (string * float, string) result

type waiter = {
  w_conn : conn;
  w_id : int;
  w_started : float;
  (* observability context; zero/None with [obs] off *)
  w_trace : int option;
  w_method : string;
  w_digest : string option;
  w_frame0 : float;
  w_obs : Rt.handle option;
}

type inflight = {
  future : work_result Domain_pool.future;
  mutable waiters : waiter list;
  coalesce_key : string option;  (** present iff later plans may join *)
  cache_key : (string * string * float * float option) option;
      (** store a successful plan under this exact key on completion *)
  invalidate : string option;  (** platform digest to invalidate on completion *)
  prof : Prof.t option;
      (** worker-side stage samples, converted to spans at reap *)
}

(* Per-connection trace aggregation: what each connection contributed
   to the sampled-span stream.  Single-writer (event loop). *)
type conn_agg = {
  mutable ca_requests : int;
  mutable ca_spans : int;
  mutable ca_seconds : float;
}

type obs_state = {
  o_cfg : obs_config;
  o_now : unit -> float;  (** clamped, event-loop side *)
  o_raw : unit -> float;  (** unclamped, safe on worker domains *)
  o_traces : Rt.t;
  o_ts : Adept_obs.Timeseries.t;
  o_alerts : Adept_obs.Alert.t;
  o_started : float;
  mutable o_next_scrape : float;
  mutable o_last_scrape : float;
  mutable o_last_busy : float array;
  mutable o_busy_ratio : float list;
  o_access : out_channel option;
  o_runtime : Runtime_metrics.t option;
  o_traces_sampled : Adept_obs.Counter.t;
  o_scrapes : Adept_obs.Counter.t;
  o_journal : Adept_obs.Journal.writer option;
  o_conn_aggs : (int, conn_agg) Hashtbl.t;  (** conn id -> aggregation *)
  o_trace_conns : (int, int) Hashtbl.t;
      (** trace id -> conn id, for retained exemplars (pruned at scrape) *)
  mutable o_alerts_logged : int;
      (** transitions already journalled (watermark into
          [Alert.transitions]) *)
  o_journal_records : Adept_obs.Counter.t;
  o_journal_bytes : Adept_obs.Counter.t;
  o_otlp_exports : Adept_obs.Counter.t;
}

type t = {
  config : config;
  registry : Adept_obs.Registry.t;
  pool : Domain_pool.t;
  cache : Cache.t;
  listener : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  read_buf : Bytes.t;
      (** every connection's reads land here; only the event loop reads,
          and {!Wire.feed} copies out before the next read *)
  mutable conns : conn list;
  mutable next_conn : int;
  mutable inflight : inflight list;
  coalesce : (string, inflight) Hashtbl.t;
  mutable draining : bool;
  mutable dispatched : int;
  obs : obs_state option;
  (* deterministic protocol-level counters (the [stats] payload) *)
  mutable plan_requests : int;
  mutable replan_requests : int;
  mutable observe_requests : int;
  mutable stats_requests : int;
  mutable errors : int;
  mutable coalesced : int;
  (* registry instruments *)
  m_requests : string -> Adept_obs.Counter.t;
  m_errors : Adept_obs.Counter.t;
  m_cache_hits : Adept_obs.Counter.t;
  m_cache_misses : Adept_obs.Counter.t;
  m_cache_evictions : Adept_obs.Counter.t;
  m_cache_invalidations : Adept_obs.Counter.t;
  m_coalesced : Adept_obs.Counter.t;
  m_inflight : Adept_obs.Gauge.t;
  m_latency : Adept_obs.Histogram.t;
}

let registry t = t.registry

let listen_socket address =
  match address with
  | Unix_socket path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

(* Process-global so signal handlers can reach it without a closure
   allocation in signal context. *)
let stop_requested = Atomic.make false

let create (config : config) =
  (* Reset here, not in [serve]: a stop requested between [create] and
     [serve] (a signal racing a slow startup) must drain the server, not
     vanish.  A previous server's leftover request is discarded. *)
  Atomic.set stop_requested false;
  let registry =
    match config.registry with
    | Some r -> r
    | None -> Adept_obs.Registry.create ()
  in
  let pool = Domain_pool.create ?workers:config.workers () in
  let wake_r, wake_w = Unix.pipe () in
  let m_eviction_age =
    Adept_obs.Registry.histogram registry Semconv.serve_cache_eviction_age_seconds
  in
  let obs =
    Option.map
      (fun (oc : obs_config) ->
        let o_now () = Clock.now oc.clock in
        let started = o_now () in
        let selectors = List.concat_map Adept_obs.Rule.selectors oc.rules in
        let ts =
          Adept_obs.Timeseries.create ~retention:oc.retention selectors
        in
        let alerts =
          match Adept_obs.Alert.create ~timeseries:ts oc.rules with
          | Ok a -> a
          | Error msg -> invalid_arg ("serve: invalid alert rules: " ^ msg)
        in
        let access =
          Option.map
            (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
            oc.access_log
        in
        let runtime =
          if oc.runtime_events then
            match Runtime_metrics.start ~registry () with
            | Ok r -> Some r
            | Error msg ->
                Logs.warn (fun m ->
                    m "serve: runtime events unavailable: %s" msg);
                None
          else None
        in
        let journal =
          Option.bind oc.journal_dir (fun dir ->
              match
                Adept_obs.Journal.create
                  ~segment_bytes:oc.journal_segment_bytes
                  ~max_segments:oc.journal_max_segments dir
              with
              | Ok w -> Some w
              | Error msg ->
                  Logs.warn (fun m ->
                      m "serve: flight recorder disabled: %s" msg);
                  None)
        in
        let j_records =
          Adept_obs.Registry.counter registry
            Semconv.serve_journal_records_total
        and j_bytes =
          Adept_obs.Registry.counter registry Semconv.serve_journal_bytes_total
        and otlp_exports =
          Adept_obs.Registry.counter registry Semconv.serve_otlp_exports_total
        in
        Option.iter
          (fun w ->
            let n =
              Adept_obs.Journal.append w
                (Adept_obs.Journal.Meta
                   {
                     m_at = started;
                     m_sample_rate = oc.trace_sample_rate;
                     m_max_traces = max 1 oc.trace_slowest;
                     m_max_spans = trace_max_spans;
                     m_scrape_interval = oc.scrape_interval;
                     m_retention = oc.retention;
                     m_workers = Domain_pool.size pool;
                     (* the on-disk layout keeps the member; every
                        plan is one [Planner.run] *)
                     m_shards = 1;
                   })
            in
            Adept_obs.Counter.inc j_records;
            Adept_obs.Counter.inc ~by:(float_of_int n) j_bytes)
          journal;
        {
          o_cfg = oc;
          o_now;
          o_raw = Clock.raw oc.clock;
          o_traces =
            Rt.create ~sample_rate:oc.trace_sample_rate
              ~max_traces:(max 1 oc.trace_slowest)
              ~max_spans:trace_max_spans ();
          o_ts = ts;
          o_alerts = alerts;
          o_started = started;
          o_next_scrape = started +. oc.scrape_interval;
          o_last_scrape = started;
          o_last_busy = Domain_pool.busy_seconds pool;
          o_busy_ratio = [];
          o_access = access;
          o_runtime = runtime;
          o_traces_sampled =
            Adept_obs.Registry.counter registry Semconv.serve_traces_sampled_total;
          o_scrapes =
            Adept_obs.Registry.counter registry Semconv.serve_scrapes_total;
          o_journal = journal;
          o_conn_aggs = Hashtbl.create 16;
          o_trace_conns = Hashtbl.create 64;
          o_alerts_logged = 0;
          o_journal_records = j_records;
          o_journal_bytes = j_bytes;
          o_otlp_exports = otlp_exports;
        })
      config.obs
  in
  {
    config;
    registry;
    pool;
    cache =
      Cache.create ~capacity:config.cache_capacity
        ~on_evict:(fun ~age -> Adept_obs.Histogram.record m_eviction_age age)
        ();
    listener = listen_socket config.address;
    wake_r;
    wake_w;
    read_buf = Bytes.create 65536;
    conns = [];
    next_conn = 1;
    inflight = [];
    coalesce = Hashtbl.create 16;
    draining = false;
    dispatched = 0;
    obs;
    plan_requests = 0;
    replan_requests = 0;
    observe_requests = 0;
    stats_requests = 0;
    errors = 0;
    coalesced = 0;
    m_requests =
      (fun method_ ->
        Adept_obs.Registry.counter registry
          ~labels:(Label.v [ (Semconv.l_method, method_) ])
          Semconv.serve_requests_total);
    m_errors = Adept_obs.Registry.counter registry Semconv.serve_errors_total;
    m_cache_hits =
      Adept_obs.Registry.counter registry Semconv.serve_cache_hits_total;
    m_cache_misses =
      Adept_obs.Registry.counter registry Semconv.serve_cache_misses_total;
    m_cache_evictions =
      Adept_obs.Registry.counter registry Semconv.serve_cache_evictions_total;
    m_cache_invalidations =
      Adept_obs.Registry.counter registry Semconv.serve_cache_invalidations_total;
    m_coalesced =
      Adept_obs.Registry.counter registry Semconv.serve_coalesced_total;
    m_inflight =
      Adept_obs.Registry.gauge registry Semconv.serve_inflight_requests;
    m_latency =
      Adept_obs.Registry.histogram registry Semconv.serve_request_seconds;
  }

(* Mirror the cache's internal tallies into the registry by delta — the
   cache is single-writer (this domain), so the subtraction is exact. *)
let sync_cache_metrics t =
  let bump counter target =
    let d = float_of_int target -. Adept_obs.Counter.value counter in
    if d > 0.0 then Adept_obs.Counter.inc ~by:d counter
  in
  bump t.m_cache_hits (Cache.hits t.cache);
  bump t.m_cache_misses (Cache.misses t.cache);
  bump t.m_cache_evictions (Cache.evictions t.cache);
  bump t.m_cache_invalidations (Cache.invalidations t.cache)

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns
  end

let send_reply t conn reply =
  if conn.alive then
    match Wire.write_frame conn.fd (Protocol.encode_reply reply) with
    | () -> ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
        (* The peer vanished mid-reply; that is its problem, not the
           server's.  Drop the connection, keep serving. *)
        close_conn t conn

let send_error t conn id kind =
  t.errors <- t.errors + 1;
  Adept_obs.Counter.inc t.m_errors;
  send_reply t conn
    { Protocol.reply_id = Option.value ~default:0 id;
      response = Protocol.Error kind }

(* ---------- live observability helpers ---------- *)

let obs_now t = match t.obs with Some o -> o.o_now () | None -> 0.0

(* Merge every phase's GC-pause histogram and take the p99 — the single
   "how bad are pauses" number [adept top] shows. *)
let gc_pause_p99 t =
  match Adept_obs.Registry.find t.registry Semconv.runtime_gc_pause_seconds with
  | None -> 0.0
  | Some fam -> (
      let merged =
        List.fold_left
          (fun acc (_, v) ->
            match v with
            | Adept_obs.Registry.Histogram s -> (
                match acc with
                | None -> Some s
                | Some a -> Some (Adept_obs.Histogram.merge a s))
            | _ -> acc)
          None fam.Adept_obs.Registry.series
      in
      match merged with
      | None -> 0.0
      | Some s ->
          Option.value ~default:0.0 (Adept_obs.Histogram.quantile s 99.0))

(* ---------- flight recorder ---------- *)

let journal o r =
  match o.o_journal with
  | None -> ()
  | Some w -> (
      try
        let n = Adept_obs.Journal.append w r in
        Adept_obs.Counter.inc o.o_journal_records;
        Adept_obs.Counter.inc ~by:(float_of_int n) o.o_journal_bytes
      with Sys_error msg ->
        Logs.warn (fun m -> m "serve: flight recorder append failed: %s" msg))

(* Fold a finished traced request into its connection's aggregate, map
   the trace to the connection for OTLP export, and journal the finish
   with the exact span array the live reservoir admitted. *)
let note_traced_finish o ~conn ~h ~spans_n ~issued ~now tr =
  let cell =
    match Hashtbl.find_opt o.o_conn_aggs conn.c_id with
    | Some c -> c
    | None ->
        let c = { ca_requests = 0; ca_spans = 0; ca_seconds = 0.0 } in
        Hashtbl.add o.o_conn_aggs conn.c_id c;
        c
  in
  cell.ca_requests <- cell.ca_requests + 1;
  cell.ca_spans <- cell.ca_spans + spans_n;
  cell.ca_seconds <- cell.ca_seconds +. (now -. issued);
  Hashtbl.replace o.o_trace_conns (Rt.trace_id h) conn.c_id;
  journal o
    (Adept_obs.Journal.Finish
       {
         f_at = now;
         f_trace = Rt.trace_id h;
         f_issued = issued;
         f_conn = conn.c_id;
         f_spans = Option.map (fun tr -> tr.Rt.tr_spans) tr;
         f_dropped_spans = Rt.dropped_spans o.o_traces;
       })

let conn_agg_list o =
  Hashtbl.fold
    (fun id c acc ->
      {
        Protocol.conn_id = id;
        conn_requests = c.ca_requests;
        conn_spans = c.ca_spans;
        conn_seconds = c.ca_seconds;
      }
      :: acc)
    o.o_conn_aggs []
  |> List.sort (fun a b -> Int.compare a.Protocol.conn_id b.Protocol.conn_id)

(* ---------- OTLP export ---------- *)

let otlp_resource t o =
  let conns = conn_agg_list o in
  let busiest =
    List.fold_left
      (fun acc (c : Protocol.conn_stats) ->
        match acc with
        | Some (b : Protocol.conn_stats) when b.conn_seconds >= c.conn_seconds
          ->
            acc
        | _ -> Some c)
      None conns
  in
  [
    ("service.name", "adept-serve");
    ("adept.workers", string_of_int (Domain_pool.size t.pool));
    ("adept.connections.open", string_of_int (List.length t.conns));
    ("adept.connections.traced", string_of_int (List.length conns));
  ]
  @
  match busiest with
  | None -> []
  | Some c ->
      [
        ("adept.conn.busiest", string_of_int c.Protocol.conn_id);
        ( "adept.conn.busiest.seconds",
          Printf.sprintf "%.6f" c.Protocol.conn_seconds );
      ]

let otlp_document t o =
  Adept_obs.Otlp.document ~resource:(otlp_resource t o)
    ~conn_of:(fun tr -> Hashtbl.find_opt o.o_trace_conns tr)
    ~at:(o.o_now ())
    ~exemplars:(Rt.exemplars o.o_traces)
    (Adept_obs.Registry.snapshot t.registry)

let write_otlp t o =
  match o.o_cfg.otlp with
  | None -> ()
  | Some sink -> (
      let doc = otlp_document t o in
      try
        (match sink with
        | Otlp_file path ->
            let tmp = path ^ ".tmp" in
            let oc = open_out tmp in
            output_string oc doc;
            close_out oc;
            Sys.rename tmp path
        | Otlp_tcp (host, port) ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let addr =
                  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
                  with Not_found -> Unix.inet_addr_of_string host
                in
                Unix.connect fd (Unix.ADDR_INET (addr, port));
                let b = Bytes.of_string doc in
                let sent = ref 0 in
                while !sent < Bytes.length b do
                  sent := !sent + Unix.write fd b !sent (Bytes.length b - !sent)
                done));
        Adept_obs.Counter.inc o.o_otlp_exports
      with
      | Unix.Unix_error (e, _, _) ->
          Logs.warn (fun m ->
              m "serve: OTLP export to %s failed: %s"
                (otlp_sink_to_string sink) (Unix.error_message e))
      | Sys_error msg ->
          Logs.warn (fun m -> m "serve: OTLP export failed: %s" msg))

let live_stats t o =
  let now = o.o_now () in
  let snap = Adept_obs.Histogram.snapshot t.m_latency in
  let q p = Option.value ~default:0.0 (Adept_obs.Histogram.quantile snap p) in
  {
    Protocol.uptime_seconds = now -. o.o_started;
    latency_p50 = q 50.0;
    latency_p99 = q 99.0;
    cache_hit_ratio = Cache.hit_ratio t.cache;
    gc_pause_p99 = gc_pause_p99 t;
    domain_busy = o.o_busy_ratio;
    traces_sampled = Rt.sampled o.o_traces;
    firing_alerts =
      List.filter_map
        (fun ((r : Adept_obs.Rule.t), st) ->
          match st with
          | Adept_obs.Alert.Firing _ ->
              Some (r.Adept_obs.Rule.name,
                    Adept_obs.Rule.severity_name r.Adept_obs.Rule.severity)
          | _ -> None)
        (Adept_obs.Alert.states o.o_alerts);
    connections = conn_agg_list o;
  }

let current_stats t =
  {
    Protocol.plan_requests = t.plan_requests;
    replan_requests = t.replan_requests;
    observe_requests = t.observe_requests;
    stats_requests = t.stats_requests;
    errors = t.errors;
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
    cache_evictions = Cache.evictions t.cache;
    cache_invalidations = Cache.invalidations t.cache;
    coalesced = t.coalesced;
    workers = Domain_pool.size t.pool;
    live = Option.map (fun o -> live_stats t o) t.obs;
  }

let log_access o ~now ~trace ~method_ ~digest ~cache ~duration ~status =
  if o.o_access <> None || o.o_journal <> None then begin
    let fields =
      [ ("at", Json.Float now) ]
      @ (match trace with
        | None -> []
        | Some tid -> [ ("trace", Json.Int tid) ])
      @ [ ("method", Json.String method_) ]
      @ (match digest with
        | None -> []
        | Some d -> [ ("digest", Json.String d) ])
      @ (match cache with
        | None -> []
        | Some hit ->
            [ ("cache", Json.String (if hit then "hit" else "miss")) ])
      @ [
          ("duration", Json.Float duration);
          ("status", Json.String status);
        ]
    in
    let line = Json.to_string (Json.Obj fields) in
    (match o.o_access with
    | None -> ()
    | Some ch ->
        output_string ch line;
        output_char ch '\n';
        flush ch);
    journal o (Adept_obs.Journal.Access { x_at = now; x_line = line })
  end

(* Append one span to a sampled request's chain and advance its tail. *)
let record_stage t ~robs ~kind ~node ~start ~stop =
  match (t.obs, robs) with
  | Some o, Some h ->
      Rt.set_tail h
        (Rt.add_span o.o_traces h ~parent:(Rt.tail h) ~kind ~node ~start ~stop)
  | _ -> ()

(* ---------- dispatch ---------- *)

let wake t = ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)

let submit_work t conn id ?coalesce_key ?cache_key ?invalidate ~robs ~prof
    ~trace ~method_ ~digest ~frame0 work =
  let waiter =
    { w_conn = conn; w_id = id; w_started = Unix.gettimeofday ();
      w_trace = trace; w_method = method_; w_digest = digest;
      w_frame0 = frame0; w_obs = robs }
  in
  let entry =
    {
      (* The wake MUST ride on [on_resolve], not inside the task: a wake
         written before the future resolves can be drained by the event
         loop while the entry still reads as pending, and with no second
         wake coming the reply never leaves [reap] — a lost wakeup that
         hangs the client.  (It also fires when [work] raises.) *)
      future = Domain_pool.submit ~on_resolve:(fun () -> wake t) t.pool work;
      waiters = [ waiter ];
      coalesce_key;
      cache_key;
      invalidate;
      prof;
    }
  in
  t.inflight <- entry :: t.inflight;
  Option.iter (fun k -> Hashtbl.replace t.coalesce k entry) coalesce_key;
  Adept_obs.Gauge.set t.m_inflight (float_of_int (List.length t.inflight))

let plan_cache_key (p : Protocol.plan_params) =
  match Render.wapp_of_dgemm p.Protocol.dgemm with
  | Error _ -> None
  | Ok wapp ->
      Some
        ( Protocol.spec_digest p.Protocol.spec,
          p.Protocol.strategy,
          wapp,
          p.Protocol.demand )

(* Answer an inline (event-loop) request: write span around the actual
   frame write, close the trace, log the access. *)
let answer_inline t ~robs ~frame0 ~trace ~method_ ~digest ~cache conn id
    response =
  match t.obs with
  | None -> send_reply t conn { Protocol.reply_id = id; response }
  | Some o ->
      let t0 = o.o_now () in
      send_reply t conn { Protocol.reply_id = id; response };
      let t1 = o.o_now () in
      (match robs with
      | None -> ()
      | Some h ->
          ignore
            (Rt.add_span o.o_traces h ~parent:(Rt.tail h)
               ~kind:(Rt.Stage Rt.Write_reply) ~node:(-1) ~start:t0 ~stop:t1);
          let spans_n = Rt.span_count h in
          let tr = Rt.finish_trace o.o_traces h ~now:t1 in
          note_traced_finish o ~conn ~h ~spans_n ~issued:frame0 ~now:t1 tr);
      log_access o ~now:t1 ~trace ~method_ ~digest ~cache
        ~duration:(t1 -. frame0) ~status:"ok"

let dispatch t conn ~robs ~frame0 { Protocol.id; trace; request } =
  t.dispatched <- t.dispatched + 1;
  match request with
  | Protocol.Stats ->
      t.stats_requests <- t.stats_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "stats");
      answer_inline t ~robs ~frame0 ~trace ~method_:"stats" ~digest:None
        ~cache:None conn id
        (Protocol.Stats_ok (current_stats t))
  | Protocol.Trace_dump -> (
      Adept_obs.Counter.inc (t.m_requests "trace");
      match t.obs with
      | None ->
          send_error t conn (Some id)
            (Protocol.Invalid_params
               "tracing is not enabled on this server (run serve with \
                observability on)")
      | Some o ->
          (* Marker first: replay cuts just before it, and the dump
             request's own Begin_request was already journalled in
             [handle_frame] — exactly the state the live renderer saw. *)
          journal o (Adept_obs.Journal.Dump_marker { d_at = o.o_now () });
          answer_inline t ~robs ~frame0 ~trace ~method_:"trace" ~digest:None
            ~cache:None conn id
            (Protocol.Trace_ok
               { chrome = Adept_obs.Export.chrome_trace o.o_traces }))
  | Protocol.Otlp_dump -> (
      Adept_obs.Counter.inc (t.m_requests "otlp");
      match t.obs with
      | None ->
          send_error t conn (Some id)
            (Protocol.Invalid_params
               "tracing is not enabled on this server (run serve with \
                observability on)")
      | Some o ->
          journal o (Adept_obs.Journal.Dump_marker { d_at = o.o_now () });
          answer_inline t ~robs ~frame0 ~trace ~method_:"otlp" ~digest:None
            ~cache:None conn id
            (Protocol.Otlp_ok { otlp = otlp_document t o }))
  | Protocol.Plan p -> (
      t.plan_requests <- t.plan_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "plan");
      (* Worker-side stage samples only exist for sampled requests — the
         untraced path passes [None] through to {!Prof.time} no-ops. *)
      let prof =
        match (t.obs, robs) with
        | Some o, Some _ -> Some (Prof.create ~now:o.o_raw)
        | _ -> None
      in
      let run_plan () =
        W_plan
          (Result.map
             (fun (text, rho, nodes_used) -> { Cache.text; rho; nodes_used })
             (Render.plan ?prof p))
      in
      let submit ?coalesce_key ?cache_key ~digest () =
        submit_work t conn id ?coalesce_key ?cache_key ~robs ~prof ~trace
          ~method_:"plan" ~digest:(Some digest) ~frame0 run_plan
      in
      match plan_cache_key p with
      | None ->
          (* Let the worker path surface the workload error as a typed
             plan failure. *)
          submit ~digest:(Protocol.spec_digest p.Protocol.spec) ()
      | Some (digest, strategy, wapp, demand) -> (
          let c0 = obs_now t in
          let cached =
            if p.Protocol.use_cache then
              Cache.find t.cache ~digest ~strategy ~wapp ~demand
            else None
          in
          record_stage t ~robs ~kind:(Rt.Stage Rt.Cache_lookup) ~node:(-1)
            ~start:c0 ~stop:(obs_now t);
          if p.Protocol.use_cache then sync_cache_metrics t;
          match cached with
          | Some e ->
              answer_inline t ~robs ~frame0 ~trace ~method_:"plan"
                ~digest:(Some digest) ~cache:(Some true) conn id
                (Protocol.Plan_ok
                   {
                     text = e.Cache.text;
                     rho = e.Cache.rho;
                     nodes_used = e.Cache.nodes_used;
                     cached = true;
                   })
          | None -> (
              let key =
                if p.Protocol.use_cache then
                  Some
                    (Printf.sprintf "%s/%s/%h/%s" digest strategy wapp
                       (match demand with
                       | None -> "unbounded"
                       | Some r -> Printf.sprintf "%h" r))
                else None
              in
              match Option.bind key (Hashtbl.find_opt t.coalesce) with
              | Some entry when not (Domain_pool.is_resolved entry.future) ->
                  t.coalesced <- t.coalesced + 1;
                  Adept_obs.Counter.inc t.m_coalesced;
                  entry.waiters <-
                    { w_conn = conn; w_id = id;
                      w_started = Unix.gettimeofday (); w_trace = trace;
                      w_method = "plan"; w_digest = Some digest;
                      w_frame0 = frame0; w_obs = robs }
                    :: entry.waiters
              | _ ->
                  let cache_key =
                    if p.Protocol.use_cache then
                      Some (digest, strategy, wapp, demand)
                    else None
                  in
                  submit ?coalesce_key:key ?cache_key ~digest ())))
  | Protocol.Replan r ->
      t.replan_requests <- t.replan_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "replan");
      let digest = Protocol.spec_digest r.Protocol.r_spec in
      submit_work t conn id ~invalidate:digest ~robs ~prof:None ~trace
        ~method_:"replan" ~digest:(Some digest) ~frame0 (fun () ->
          W_replan (Render.replan r))
  | Protocol.Observe o ->
      t.observe_requests <- t.observe_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "observe");
      submit_work t conn id ~robs ~prof:None ~trace ~method_:"observe"
        ~digest:None ~frame0 (fun () -> W_observe (Render.observe o))

let response_of_result = function
  | W_plan (Ok e) ->
      Protocol.Plan_ok
        {
          text = e.Cache.text;
          rho = e.Cache.rho;
          nodes_used = e.Cache.nodes_used;
          cached = false;
        }
  | W_replan (Ok (text, rho_after)) -> Protocol.Replan_ok { text; rho_after }
  | W_observe (Ok (text, throughput)) -> Protocol.Observe_ok { text; throughput }
  | W_plan (Error msg) | W_replan (Error msg) | W_observe (Error msg) ->
      Protocol.Error (Protocol.Plan_failed msg)

(* Turn the entry's worker-side stage samples into spans on one sampled
   waiter's chain, after the cache-lookup span: replay, then render. *)
let graft_worker_spans o entry h =
  match entry.prof with
  | None -> ()
  | Some prof ->
      List.iter
        (fun (s : Prof.sample) ->
          let kind =
            match s.Prof.ps_stage with
            | "replay" -> Some (Rt.Stage Rt.Replay)
            | "render" -> Some (Rt.Stage Rt.Render_reply)
            | _ -> None
          in
          Option.iter
            (fun kind ->
              Rt.set_tail h
                (Rt.add_span o.o_traces h ~parent:(Rt.tail h) ~kind ~node:(-1)
                   ~start:s.Prof.ps_start ~stop:s.Prof.ps_stop))
            kind)
        (Prof.samples prof)

(* Answer every resolved in-flight entry; cache plan answers; apply
   replan invalidations. *)
let reap t =
  let resolved, pending =
    List.partition (fun e -> Domain_pool.is_resolved e.future) t.inflight
  in
  t.inflight <- pending;
  Adept_obs.Gauge.set t.m_inflight (float_of_int (List.length pending));
  List.iter
    (fun entry ->
      Option.iter
        (fun k ->
          match Hashtbl.find_opt t.coalesce k with
          | Some e when e == entry -> Hashtbl.remove t.coalesce k
          | _ -> ())
        entry.coalesce_key;
      let result =
        try Domain_pool.await entry.future
        with e -> W_plan (Error (Printexc.to_string e))
      in
      (match (result, entry.cache_key) with
      | W_plan (Ok e), Some (digest, strategy, wapp, demand) ->
          Cache.add t.cache ~now:(obs_now t) ~digest ~strategy ~wapp ~demand e
      | _ -> ());
      (match (result, entry.invalidate) with
      | (W_replan (Ok _) | W_replan (Error _)), Some digest ->
          ignore (Cache.invalidate_platform t.cache ~digest);
          sync_cache_metrics t
      | _ -> ());
      let response = response_of_result result in
      let is_error =
        match response with Protocol.Error _ -> true | _ -> false
      in
      let now = Unix.gettimeofday () in
      List.iter
        (fun w ->
          (match w.w_obs with
          | Some h ->
              Adept_obs.Histogram.record_ex t.m_latency (now -. w.w_started)
                ~trace_id:(Rt.trace_id h)
          | None -> Adept_obs.Histogram.record t.m_latency (now -. w.w_started));
          let send () =
            if is_error then
              send_error t w.w_conn (Some w.w_id)
                (match response with
                | Protocol.Error k -> k
                | _ -> assert false)
            else
              send_reply t w.w_conn { Protocol.reply_id = w.w_id; response }
          in
          match t.obs with
          | None -> send ()
          | Some o ->
              Option.iter (fun h -> graft_worker_spans o entry h) w.w_obs;
              let t0 = o.o_now () in
              send ();
              let t1 = o.o_now () in
              Option.iter
                (fun h ->
                  ignore
                    (Rt.add_span o.o_traces h ~parent:(Rt.tail h)
                       ~kind:(Rt.Stage Rt.Write_reply) ~node:(-1) ~start:t0
                       ~stop:t1);
                  let spans_n = Rt.span_count h in
                  let tr = Rt.finish_trace o.o_traces h ~now:t1 in
                  note_traced_finish o ~conn:w.w_conn ~h ~spans_n
                    ~issued:w.w_frame0 ~now:t1 tr)
                w.w_obs;
              log_access o ~now:t1 ~trace:w.w_trace ~method_:w.w_method
                ~digest:w.w_digest
                ~cache:(if w.w_method = "plan" then Some false else None)
                ~duration:(t1 -. w.w_frame0)
                ~status:(if is_error then "error" else "ok"))
        (List.rev entry.waiters))
    (List.rev resolved)

(* ---------- frame handling ---------- *)

let handle_frame t conn ~frame_start payload =
  match t.obs with
  | None -> (
      match Protocol.decode_request payload with
      | Protocol.Bad (id, kind) -> send_error t conn id kind
      | Protocol.Request envelope ->
          dispatch t conn ~robs:None ~frame0:0.0 envelope)
  | Some o -> (
      let t_parse0 = o.o_now () in
      let decoded = Protocol.decode_request payload in
      let t_parse1 = o.o_now () in
      match decoded with
      | Protocol.Bad (id, kind) -> send_error t conn id kind
      | Protocol.Request envelope ->
          let frame0 =
            if Float.is_nan frame_start then t_parse0 else frame_start
          in
          let robs =
            match envelope.Protocol.trace with
            | None -> None
            | Some tid -> (
                let admitted = Rt.begin_with_id o.o_traces ~id:tid ~now:frame0 in
                journal o
                  (Adept_obs.Journal.Begin_request
                     {
                       b_at = frame0;
                       b_trace = tid;
                       b_sampled = admitted <> None;
                     });
                match admitted with
                | None -> None
                | Some h ->
                    Adept_obs.Counter.inc o.o_traces_sampled;
                    let p =
                      Rt.add_span o.o_traces h ~parent:(-1)
                        ~kind:(Rt.Stage Rt.Frame_read) ~node:(-1) ~start:frame0
                        ~stop:t_parse0
                    in
                    let p =
                      Rt.add_span o.o_traces h ~parent:p
                        ~kind:(Rt.Stage Rt.Parse) ~node:(-1) ~start:t_parse0
                        ~stop:t_parse1
                    in
                    Rt.set_tail h p;
                    Some h)
          in
          dispatch t conn ~robs ~frame0 envelope)

let read_conn t conn =
  (* Stamp the arrival of the first bytes of a frame: the frame-read
     span runs from here to frame completion.  A second frame completed
     out of the same buffer gets a zero-length read span (its bytes
     were already here). *)
  (match t.obs with
  | Some o when Float.is_nan conn.frame_start ->
      conn.frame_start <- o.o_now ()
  | _ -> ());
  let buf = t.read_buf in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 ->
      (* Clean or mid-frame EOF: either way the stream is over.  Any
         unanswered frame dies with it — the client is gone. *)
      close_conn t conn
  | n ->
      Wire.feed conn.reader (Bytes.unsafe_to_string buf) 0 n;
      let rec drain_frames () =
        if conn.alive then
          match Wire.step conn.reader with
          | Wire.Frame payload ->
              let frame_start = conn.frame_start in
              conn.frame_start <- Float.nan;
              handle_frame t conn ~frame_start payload;
              drain_frames ()
          | Wire.Need_more -> ()
          | Wire.Oversized declared ->
              (* The stream offset is unrecoverable past a bogus length
                 prefix; drop the connection. *)
              Logs.warn (fun m ->
                  m "serve: dropping connection (oversized frame: %d bytes)"
                    declared);
              t.errors <- t.errors + 1;
              Adept_obs.Counter.inc t.m_errors;
              close_conn t conn
      in
      drain_frames ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t conn

(* ---------- scrape loop ---------- *)

let write_prom t o =
  match o.o_cfg.prom_path with
  | None -> ()
  | Some path -> (
      try
        let doc =
          Adept_obs.Export.prometheus (Adept_obs.Registry.snapshot t.registry)
        in
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        output_string oc doc;
        close_out oc;
        Sys.rename tmp path
      with Sys_error msg ->
        Logs.warn (fun m -> m "serve: prometheus export failed: %s" msg))

(* One wall-clock observability tick: drain the runtime's event ring,
   refresh derived gauges, scrape the time series, advance the alert
   state machines, re-export the scrape file. *)
let scrape_tick t o =
  let now = o.o_now () in
  if now >= o.o_next_scrape then begin
    (match o.o_runtime with
    | Some r -> ignore (Runtime_metrics.poll r)
    | None -> ());
    sync_cache_metrics t;
    (* Register the ratio gauge lazily: before the first lookup there
       is no ratio, and a fresh 0 sample would spuriously trip the
       hit-ratio-floor alert on startup. *)
    if Cache.hits t.cache + Cache.misses t.cache > 0 then
      Adept_obs.Gauge.set
        (Adept_obs.Registry.gauge t.registry Semconv.serve_cache_hit_ratio)
        (Cache.hit_ratio t.cache);
    let busy = Domain_pool.busy_seconds t.pool in
    let dt = now -. o.o_last_scrape in
    if dt > 0.0 then
      o.o_busy_ratio <-
        Array.to_list
          (Array.mapi
             (fun i b ->
               let prev =
                 if i < Array.length o.o_last_busy then o.o_last_busy.(i)
                 else 0.0
               in
               let r = Float.max 0.0 (Float.min 1.0 ((b -. prev) /. dt)) in
               Adept_obs.Gauge.set
                 (Adept_obs.Registry.gauge t.registry
                    ~labels:(Label.v [ (Semconv.l_domain, string_of_int i) ])
                    Semconv.runtime_domain_busy_ratio)
                 r;
               r)
             busy);
    o.o_last_busy <- busy;
    o.o_last_scrape <- now;
    Adept_obs.Timeseries.scrape o.o_ts ~registry:t.registry ~now;
    Adept_obs.Alert.eval o.o_alerts ~now;
    Adept_obs.Counter.inc o.o_scrapes;
    o.o_next_scrape <- now +. o.o_cfg.scrape_interval;
    write_prom t o;
    (* Journal the scrape summary and any alert transitions this tick
       produced (everything past the watermark). *)
    (let snap = Adept_obs.Histogram.snapshot t.m_latency in
     let q p =
       Option.value ~default:0.0 (Adept_obs.Histogram.quantile snap p)
     in
     journal o
       (Adept_obs.Journal.Scrape
          {
            j_at = now;
            j_uptime = now -. o.o_started;
            j_plans = t.plan_requests;
            j_replans = t.replan_requests;
            j_observes = t.observe_requests;
            j_stats = t.stats_requests;
            j_errors = t.errors;
            j_coalesced = t.coalesced;
            j_cache_hits = Cache.hits t.cache;
            j_cache_misses = Cache.misses t.cache;
            j_cache_evictions = Cache.evictions t.cache;
            j_cache_invalidations = Cache.invalidations t.cache;
            j_inflight = List.length t.inflight;
            j_latency_p50 = q 50.0;
            j_latency_p99 = q 99.0;
            j_hit_ratio = Cache.hit_ratio t.cache;
            j_gc_pause_p99 = gc_pause_p99 t;
            j_traces_sampled = Rt.sampled o.o_traces;
            j_busy = o.o_busy_ratio;
          }));
    (let txs = Adept_obs.Alert.transitions o.o_alerts in
     let n = List.length txs in
     if n > o.o_alerts_logged then begin
       List.iteri
         (fun i tr ->
           if i >= o.o_alerts_logged then begin
             let at, name, severity, state, value =
               Adept_obs.Export.transition_entry tr
             in
             journal o
               (Adept_obs.Journal.Alert_edge
                  {
                    a_at = at;
                    a_name = name;
                    a_severity = severity;
                    a_state = state;
                    a_value = value;
                  })
           end)
         txs;
       o.o_alerts_logged <- n
     end);
    (* The trace->conn map only needs to cover retained exemplars. *)
    (let keep = Hashtbl.create 64 in
     List.iter
       (fun (tr : Rt.trace) ->
         match Hashtbl.find_opt o.o_trace_conns tr.Rt.tr_id with
         | Some c -> Hashtbl.replace keep tr.Rt.tr_id c
         | None -> ())
       (Rt.exemplars o.o_traces);
     Hashtbl.reset o.o_trace_conns;
     Hashtbl.iter (Hashtbl.replace o.o_trace_conns) keep);
    write_otlp t o
  end

(* ---------- main loop ---------- *)

(* One read per select round: the fd is blocking, so only read when
   select reported it readable, and only once — the pipe is a wakeup
   edge, not a data channel. *)
let drain_wake t =
  let buf = Bytes.create 256 in
  match Unix.read t.wake_r buf 0 (Bytes.length buf) with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let should_drain t =
  t.draining
  || match t.config.max_requests with
     | Some m -> t.dispatched >= m
     | None -> false

(* How long a stop signal can sit recorded but unhandled; see the
   select timeout in [serve]. *)
let stop_poll_s = 0.1

let install_signal_handlers t =
  let handler _ =
    Atomic.set stop_requested true;
    (* Poke the select from the signal context; a failed write only
       delays the drain until the next wakeup. *)
    try wake t with _ -> ()
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let serve t =
  install_signal_handlers t;
  Logs.info (fun m ->
      m "serve: listening on %s (%d worker domain(s))"
        (address_to_string t.config.address)
        (Domain_pool.size t.pool));
  let accepting = ref true in
  let finished () =
    should_drain t && t.inflight = []
  in
  while not (finished ()) do
    if Atomic.get stop_requested then t.draining <- true;
    if should_drain t && !accepting then begin
      accepting := false;
      Logs.info (fun m -> m "serve: draining (%d in flight)" (List.length t.inflight));
      try Unix.close t.listener with Unix.Unix_error _ -> ()
    end;
    let read_fds =
      (if !accepting then [ t.listener ] else [])
      @ (t.wake_r :: List.map (fun c -> c.fd) t.conns)
    in
    (* The select never sleeps past [stop_poll_s].  The OCaml signal
       handler that pokes the self-pipe runs only when some domain next
       polls: a SIGTERM taken by a worker thread parked in
       [Condition.wait], or by this thread just before it enters the
       select, is recorded but not handled, and an unbounded select
       would sleep through it.  The timeout is also cut to the next
       scrape when observability runs on a wall clock (manual clocks
       are driven by events, not the wall). *)
    let timeout =
      match t.obs with
      | Some o when not (Clock.is_manual o.o_cfg.clock) ->
          Float.min stop_poll_s (Float.max 0.001 (o.o_next_scrape -. o.o_now ()))
      | Some _ | None -> stop_poll_s
    in
    (match Unix.select read_fds [] [] timeout with
    | ready, _, _ ->
        if List.mem t.wake_r ready then drain_wake t;
        if !accepting && List.mem t.listener ready then begin
          match Unix.accept t.listener with
          | fd, _ ->
              let c_id = t.next_conn in
              t.next_conn <- t.next_conn + 1;
              t.conns <-
                { c_id; fd; reader = Wire.reader (); alive = true;
                  frame_start = Float.nan }
                :: t.conns
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun conn -> if conn.alive && List.mem conn.fd ready then read_conn t conn)
          (* snapshot: read_conn may close (remove) connections *)
          (List.filter (fun c -> c.alive) t.conns)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    reap t;
    Option.iter (fun o -> scrape_tick t o) t.obs
  done;
  (* Drained: answer nothing more, tear down. *)
  List.iter (fun c -> close_conn t c) t.conns;
  if !accepting then (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.config.address with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  Domain_pool.shutdown t.pool;
  (match t.obs with
  | Some o ->
      (* A short-lived server may drain before its first tick; force a
         final one so the exported snapshot (and the lazily-registered
         derived gauges) always reflect the drained state. *)
      o.o_next_scrape <- Float.neg_infinity;
      scrape_tick t o;
      (match o.o_access with
      | Some ch -> ( try close_out ch with Sys_error _ -> ())
      | None -> ());
      (match o.o_journal with
      | Some w -> ( try Adept_obs.Journal.close w with Sys_error _ -> ())
      | None -> ())
  | None -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Logs.info (fun m -> m "serve: drained, bye")

(* Only touches the atomic and the pipe, so it is safe from a signal
   handler or another thread.  NOTE: on OCaml 5.1 do not embed [serve]
   on a secondary thread next to blocking client calls in the same
   process — with worker domains live, two systhreads parked in blocking
   sections deadlock the runtime's stop-the-world handshake.  Tests and
   the bench driver fork a dedicated server process instead and drain it
   with SIGTERM (see docs/SERVE.md). *)
let stop t =
  Atomic.set stop_requested true;
  try wake t with _ -> ()

let run config = serve (create config)
