(* Wall-clock observability for the planning server: everything that
   exists only when [adept serve] runs with observability on.  The
   event loop hands this module decoded requests ({!admit}), stage
   boundaries ({!stage}) and reply writes ({!reply}); it never names a
   journal record, an OTLP field or an access-log key itself. *)

module Label = Adept_obs.Label
module Semconv = Adept_obs.Semconv
module Rt = Adept_obs.Request_trace
module Clock = Adept_obs.Clock
module Journal = Adept_obs.Journal
module Counter = Adept_obs.Counter
module Histogram = Adept_obs.Histogram
module Registry = Adept_obs.Registry

(* ---------- configuration ---------- *)

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
  if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    Result.map
      (fun (host, port) -> Otlp_tcp (host, port))
      (Wire.host_port (String.sub s 4 (String.length s - 4)))
  else if s = "" then Error "empty otlp sink"
  else Ok (Otlp_file s)

let otlp_sink_to_string = function
  | Otlp_file path -> path
  | Otlp_tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type config = {
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

let default () =
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

(* ---------- state ---------- *)

type t = {
  cfg : config;
  registry : Registry.t;
  pool : Domain_pool.t;
  cache : Cache.t;
  latency : Histogram.t;
  now : unit -> float;  (** clamped, event-loop side *)
  raw : unit -> float;  (** unclamped, safe on worker domains *)
  traces : Rt.t;
  ts : Adept_obs.Timeseries.t;
  alerts : Adept_obs.Alert.t;
  started : float;
  mutable next_scrape : float;
  mutable last_scrape : float;
  mutable last_busy : float array;
  mutable busy_ratio : float list;
  access : out_channel option;
  runtime : Runtime_metrics.t option;
  traces_sampled : Counter.t;
  scrapes : Counter.t;
  journal : Journal.writer option;
  conn_aggs : (int, Protocol.conn_stats) Hashtbl.t;
      (** what each connection contributed to the sampled-span stream *)
  trace_conns : (int, int) Hashtbl.t;
      (** trace id -> conn id, for retained exemplars (pruned at scrape) *)
  mutable alerts_logged : int;
      (** transitions already journalled (watermark into
          [Alert.transitions]) *)
  journal_records : Counter.t;
  journal_bytes : Counter.t;
  otlp_exports : Counter.t;
}

let now t = t.now ()

let journal t r =
  match t.journal with
  | None -> ()
  | Some w -> (
      try
        let n = Journal.append w r in
        Counter.inc t.journal_records;
        Counter.inc ~by:(float_of_int n) t.journal_bytes
      with Sys_error msg ->
        Logs.warn (fun m -> m "serve: flight recorder append failed: %s" msg))

let create (cfg : config) ~registry ~pool ~cache =
  let clock_now () = Clock.now cfg.clock in
  let started = clock_now () in
  let selectors = List.concat_map Adept_obs.Rule.selectors cfg.rules in
  let ts = Adept_obs.Timeseries.create ~retention:cfg.retention selectors in
  let alerts =
    match Adept_obs.Alert.create ~timeseries:ts cfg.rules with
    | Ok a -> a
    | Error msg -> invalid_arg ("serve: invalid alert rules: " ^ msg)
  in
  let access =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      cfg.access_log
  in
  let runtime =
    if cfg.runtime_events then
      match Runtime_metrics.start ~registry () with
      | Ok r -> Some r
      | Error msg ->
          Logs.warn (fun m -> m "serve: runtime events unavailable: %s" msg);
          None
    else None
  in
  let recorder =
    Option.bind cfg.journal_dir (fun dir ->
        match
          Journal.create ~segment_bytes:cfg.journal_segment_bytes
            ~max_segments:cfg.journal_max_segments dir
        with
        | Ok w -> Some w
        | Error msg ->
            Logs.warn (fun m -> m "serve: flight recorder disabled: %s" msg);
            None)
  in
  let t =
    {
      cfg;
      registry;
      pool;
      cache;
      latency = Registry.histogram registry Semconv.serve_request_seconds;
      now = clock_now;
      raw = Clock.raw cfg.clock;
      traces =
        Rt.create ~sample_rate:cfg.trace_sample_rate
          ~max_traces:(max 1 cfg.trace_slowest) ~max_spans:trace_max_spans ();
      ts;
      alerts;
      started;
      next_scrape = started +. cfg.scrape_interval;
      last_scrape = started;
      last_busy = Domain_pool.busy_seconds pool;
      busy_ratio = [];
      access;
      runtime;
      traces_sampled =
        Registry.counter registry Semconv.serve_traces_sampled_total;
      scrapes = Registry.counter registry Semconv.serve_scrapes_total;
      journal = recorder;
      conn_aggs = Hashtbl.create 16;
      trace_conns = Hashtbl.create 64;
      alerts_logged = 0;
      journal_records =
        Registry.counter registry Semconv.serve_journal_records_total;
      journal_bytes =
        Registry.counter registry Semconv.serve_journal_bytes_total;
      otlp_exports = Registry.counter registry Semconv.serve_otlp_exports_total;
    }
  in
  journal t
    (Journal.Meta
       {
         m_at = started;
         m_sample_rate = cfg.trace_sample_rate;
         m_max_traces = max 1 cfg.trace_slowest;
         m_max_spans = trace_max_spans;
         m_scrape_interval = cfg.scrape_interval;
         m_retention = cfg.retention;
         m_workers = Domain_pool.size pool;
         (* the on-disk layout keeps the member; every plan is one
            [Planner.run] *)
         m_shards = 1;
       });
  t

let timeout t cap =
  if Clock.is_manual t.cfg.clock then cap
  else Float.min cap (Float.max 0.001 (t.next_scrape -. now t))

(* ---------- requests ---------- *)

type req = {
  live : t;
  conn : int;
  trace : int option;  (** the client-sent trace id *)
  frame0 : float;  (** arrival of the request's first bytes *)
  handle : Rt.handle option;  (** present iff sampled *)
}

(* Append one span to a sampled request's chain and advance its tail. *)
let add_stage t h kind ~start ~stop =
  Rt.set_tail h
    (Rt.add_span t.traces h ~parent:(Rt.tail h) ~kind:(Rt.Stage kind) ~node:(-1)
       ~start ~stop)

let admit t ~conn ~frame_start ~parse_start trace =
  let parse_stop = now t in
  let frame0 = if Float.is_nan frame_start then parse_start else frame_start in
  let handle =
    match trace with
    | None -> None
    | Some tid -> (
        let admitted = Rt.begin_with_id t.traces ~id:tid ~now:frame0 in
        journal t
          (Journal.Begin_request
             { b_at = frame0; b_trace = tid; b_sampled = admitted <> None });
        match admitted with
        | None -> None
        | Some h ->
            Counter.inc t.traces_sampled;
            add_stage t h Rt.Frame_read ~start:frame0 ~stop:parse_start;
            add_stage t h Rt.Parse ~start:parse_start ~stop:parse_stop;
            Some h)
  in
  { live = t; conn; trace; frame0; handle }

let sampled r = match r.handle with None -> None | Some _ -> r.trace

(* Worker-side stage samples only exist for sampled requests — the
   untraced path passes [None] through to {!Prof.time} no-ops. *)
let prof r =
  match r.handle with
  | None -> None
  | Some _ -> Some (Prof.create ~now:r.live.raw)

let stage r kind ~start =
  match r.handle with
  | None -> ()
  | Some h -> add_stage r.live h kind ~start ~stop:(now r.live)

(* Turn a worker's stage samples into spans on one sampled chain:
   replay, then render. *)
let graft t h prof =
  List.iter
    (fun { Prof.ps_stage; ps_start = start; ps_stop = stop } ->
      match ps_stage with
      | "replay" -> add_stage t h Rt.Replay ~start ~stop
      | "render" -> add_stage t h Rt.Render_reply ~start ~stop
      | _ -> ())
    (Prof.samples prof)

(* Fold a finished traced request into its connection's aggregate, map
   the trace to the connection for OTLP export, and journal the finish
   with the exact span array the live reservoir admitted. *)
let finish t r h ~now =
  let spans_n = Rt.span_count h in
  let tr = Rt.finish_trace t.traces h ~now in
  let c =
    Option.value (Hashtbl.find_opt t.conn_aggs r.conn)
      ~default:
        { Protocol.conn_id = r.conn; conn_requests = 0; conn_spans = 0;
          conn_seconds = 0.0 }
  in
  Hashtbl.replace t.conn_aggs r.conn
    { c with
      conn_requests = c.conn_requests + 1;
      conn_spans = c.conn_spans + spans_n;
      conn_seconds = c.conn_seconds +. (now -. r.frame0) };
  Hashtbl.replace t.trace_conns (Rt.trace_id h) r.conn;
  journal t
    (Journal.Finish
       {
         f_at = now;
         f_trace = Rt.trace_id h;
         f_issued = r.frame0;
         f_conn = r.conn;
         f_spans = Option.map (fun tr -> tr.Rt.tr_spans) tr;
         f_dropped_spans = Rt.dropped_spans t.traces;
       })

let log_access t r ~now ~method_ ~digest ~cache ~ok =
  if t.access <> None || t.journal <> None then begin
    let opt key f = function None -> [] | Some v -> [ (key, f v) ] in
    let fields =
      [ ("at", Json.Float now) ]
      @ opt "trace" (fun tid -> Json.Int tid) r.trace
      @ [ ("method", Json.String method_) ]
      @ opt "digest" (fun d -> Json.String d) digest
      @ opt "cache" (fun h -> Json.String (if h then "hit" else "miss")) cache
      @ [
          ("duration", Json.Float (now -. r.frame0));
          ("status", Json.String (if ok then "ok" else "error"));
        ]
    in
    let line = Json.to_string (Json.Obj fields) in
    (match t.access with
    | None -> ()
    | Some ch ->
        output_string ch line;
        output_char ch '\n';
        flush ch);
    journal t (Journal.Access { x_at = now; x_line = line })
  end

let reply r ?prof ~method_ ~digest ~cache ~ok write =
  let t = r.live in
  (match (r.handle, prof) with Some h, Some p -> graft t h p | _ -> ());
  let t0 = now t in
  write ();
  let t1 = now t in
  (match r.handle with
  | None -> ()
  | Some h ->
      add_stage t h Rt.Write_reply ~start:t0 ~stop:t1;
      finish t r h ~now:t1);
  log_access t r ~now:t1 ~method_ ~digest ~cache ~ok

(* ---------- stats and OTLP ---------- *)

(* Merge every phase's GC-pause histogram and take the p99 — the single
   "how bad are pauses" number [adept top] shows. *)
let gc_pause_p99 t =
  let phases =
    match Registry.find t.registry Semconv.runtime_gc_pause_seconds with
    | None -> []
    | Some fam ->
        List.filter_map
          (function _, Registry.Histogram s -> Some s | _ -> None)
          fam.Registry.series
  in
  match phases with
  | [] -> 0.0
  | s :: rest ->
      Option.value ~default:0.0
        (Histogram.quantile (List.fold_left Histogram.merge s rest) 99.0)

let conn_agg_list t =
  List.of_seq (Hashtbl.to_seq_values t.conn_aggs)
  |> List.sort (fun a b -> Int.compare a.Protocol.conn_id b.Protocol.conn_id)

let live_stats t ~now =
  let snap = Histogram.snapshot t.latency in
  let q p = Option.value ~default:0.0 (Histogram.quantile snap p) in
  {
    Protocol.uptime_seconds = now -. t.started;
    latency_p50 = q 50.0;
    latency_p99 = q 99.0;
    cache_hit_ratio = Cache.hit_ratio t.cache;
    gc_pause_p99 = gc_pause_p99 t;
    domain_busy = t.busy_ratio;
    traces_sampled = Rt.sampled t.traces;
    firing_alerts =
      List.filter_map
        (fun ((r : Adept_obs.Rule.t), st) ->
          match st with
          | Adept_obs.Alert.Firing _ ->
              Some (r.Adept_obs.Rule.name,
                    Adept_obs.Rule.severity_name r.Adept_obs.Rule.severity)
          | _ -> None)
        (Adept_obs.Alert.states t.alerts);
    connections = conn_agg_list t;
  }

let stats t = live_stats t ~now:(now t)

let otlp_resource t ~open_conns =
  let conns = conn_agg_list t in
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
    ("adept.connections.open", string_of_int open_conns);
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

let otlp_document t ~open_conns =
  Adept_obs.Otlp.document
    ~resource:(otlp_resource t ~open_conns)
    ~conn_of:(fun tr -> Hashtbl.find_opt t.trace_conns tr)
    ~at:(now t)
    ~exemplars:(Rt.exemplars t.traces)
    (Registry.snapshot t.registry)

(* Marker first: replay cuts just before it, and the dump request's own
   Begin_request was already journalled by {!admit} — exactly the state
   the live renderer sees. *)
let dump t ~open_conns format =
  journal t (Journal.Dump_marker { d_at = now t });
  match format with
  | `Chrome ->
      Protocol.Trace_ok { chrome = Adept_obs.Export.chrome_trace t.traces }
  | `Otlp -> Protocol.Otlp_ok { otlp = otlp_document t ~open_conns }

(* ---------- scrape loop ---------- *)

(* Readers never see a half-written file. *)
let write_atomic path doc =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc doc;
  close_out oc;
  Sys.rename tmp path

let write_prom t =
  match t.cfg.prom_path with
  | None -> ()
  | Some path -> (
      try
        write_atomic path
          (Adept_obs.Export.prometheus (Registry.snapshot t.registry))
      with Sys_error msg ->
        Logs.warn (fun m -> m "serve: prometheus export failed: %s" msg))

let write_otlp t ~open_conns =
  match t.cfg.otlp with
  | None -> ()
  | Some sink -> (
      let doc = otlp_document t ~open_conns in
      try
        (match sink with
        | Otlp_file path -> write_atomic path doc
        | Otlp_tcp (host, port) ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.connect fd (Wire.inet_sockaddr host port);
                Wire.write_all fd doc));
        Counter.inc t.otlp_exports
      with
      | Unix.Unix_error (e, _, _) ->
          Logs.warn (fun m ->
              m "serve: OTLP export to %s failed: %s" (otlp_sink_to_string sink)
                (Unix.error_message e))
      | Sys_error msg ->
          Logs.warn (fun m -> m "serve: OTLP export failed: %s" msg))

(* Journal the alert transitions past the watermark. *)
let journal_alert_edges t =
  let txs = Adept_obs.Alert.transitions t.alerts in
  List.iteri
    (fun i tr ->
      if i >= t.alerts_logged then
        let a_at, a_name, a_severity, a_state, a_value =
          Adept_obs.Export.transition_entry tr
        in
        journal t
          (Journal.Alert_edge { a_at; a_name; a_severity; a_state; a_value }))
    txs;
  t.alerts_logged <- max t.alerts_logged (List.length txs)

(* The trace->conn map only needs to cover retained exemplars. *)
let prune_trace_conns t =
  let keep =
    List.map (fun (tr : Rt.trace) -> tr.Rt.tr_id) (Rt.exemplars t.traces)
  in
  Hashtbl.filter_map_inplace
    (fun id c -> if List.mem id keep then Some c else None)
    t.trace_conns

(* One wall-clock observability tick: drain the runtime's event ring,
   refresh derived gauges, scrape the time series, advance the alert
   state machines, re-export the scrape file, journal the scrape. *)
let tick t ~sync ~inflight ~open_conns =
  let now = now t in
  if now >= t.next_scrape then begin
    Option.iter (fun r -> ignore (Runtime_metrics.poll r)) t.runtime;
    let s : Protocol.server_stats = sync () in
    (* Register the ratio gauge lazily: before the first lookup there
       is no ratio, and a fresh 0 sample would spuriously trip the
       hit-ratio-floor alert on startup. *)
    if s.cache_hits + s.cache_misses > 0 then
      Adept_obs.Gauge.set
        (Registry.gauge t.registry Semconv.serve_cache_hit_ratio)
        (Cache.hit_ratio t.cache);
    let busy = Domain_pool.busy_seconds t.pool in
    let dt = now -. t.last_scrape in
    if dt > 0.0 then
      t.busy_ratio <-
        Array.to_list
          (Array.mapi
             (fun i b ->
               let prev =
                 if i < Array.length t.last_busy then t.last_busy.(i) else 0.0
               in
               let r = Float.max 0.0 (Float.min 1.0 ((b -. prev) /. dt)) in
               Adept_obs.Gauge.set
                 (Registry.gauge t.registry
                    ~labels:(Label.v [ (Semconv.l_domain, string_of_int i) ])
                    Semconv.runtime_domain_busy_ratio)
                 r;
               r)
             busy);
    t.last_busy <- busy;
    t.last_scrape <- now;
    Adept_obs.Timeseries.scrape t.ts ~registry:t.registry ~now;
    Adept_obs.Alert.eval t.alerts ~now;
    Counter.inc t.scrapes;
    t.next_scrape <- now +. t.cfg.scrape_interval;
    write_prom t;
    let l = live_stats t ~now in
    journal t
      (Journal.Scrape
         {
           j_at = now;
           j_uptime = l.uptime_seconds;
           j_plans = s.plan_requests;
           j_replans = s.replan_requests;
           j_observes = s.observe_requests;
           j_stats = s.stats_requests;
           j_errors = s.errors;
           j_coalesced = s.coalesced;
           j_cache_hits = s.cache_hits;
           j_cache_misses = s.cache_misses;
           j_cache_evictions = s.cache_evictions;
           j_cache_invalidations = s.cache_invalidations;
           j_inflight = inflight;
           j_latency_p50 = l.latency_p50;
           j_latency_p99 = l.latency_p99;
           j_hit_ratio = l.cache_hit_ratio;
           j_gc_pause_p99 = l.gc_pause_p99;
           j_traces_sampled = l.traces_sampled;
           j_busy = l.domain_busy;
         });
    journal_alert_edges t;
    prune_trace_conns t;
    write_otlp t ~open_conns
  end

let close t ~sync ~inflight ~open_conns =
  (* A short-lived server may drain before its first tick; force a final
     one so the exported snapshot (and the lazily-registered derived
     gauges) always reflect the drained state. *)
  t.next_scrape <- Float.neg_infinity;
  tick t ~sync ~inflight ~open_conns;
  Option.iter (fun ch -> try close_out ch with Sys_error _ -> ()) t.access;
  Option.iter (fun w -> try Journal.close w with Sys_error _ -> ()) t.journal
