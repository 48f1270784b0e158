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

   Wall-clock observability is opt-in ([config.obs]) and lives in
   {!Live}: this loop only tells it that a request was admitted, that
   a stage ended, that a reply is being written, and when to dump,
   tick and close.  The hard invariant: observability never changes
   answers.  Requests are parsed, planned, cached and answered
   identically with [obs] absent, and sampling is a deterministic hash
   of the client-sent trace id (no RNG is consulted).  With
   [obs = None] the request path reads no observability clock, and
   nothing but requests and worker completions wakes the loop (plus an
   idle tick that only rechecks the stop flag), so golden transcripts
   of an untraced server stay byte-identical.

   Draining: on SIGINT/SIGTERM (or after [max_requests] dispatches) the
   listener closes, in-flight work finishes and is answered, then
   connections close and [run] returns.  A long-lived planner should
   die with an empty in-flight table, not mid-bisection. *)

module Label = Adept_obs.Label
module Semconv = Adept_obs.Semconv

type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Ok (Unix_socket (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" ->
      Result.map
        (fun (host, port) -> Tcp (host, port))
        (Wire.host_port (String.sub s (i + 1) (String.length s - i - 1)))
  | _ ->
      (* A bare path is a Unix socket — the common local case. *)
      if s = "" then Error "empty address" else Ok (Unix_socket s)

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Wire.inet_sockaddr host port

type config = {
  address : address;
  workers : int option;  (** worker domains; default [recommended - 1] *)
  cache_capacity : int;
  max_requests : int option;  (** drain after this many dispatches *)
  registry : Adept_obs.Registry.t option;
  obs : Live.config option;
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
      (** Instant the current partial frame's first bytes arrived; [nan]
          when no read has happened since the last frame (only
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
  w_method : string;
  w_digest : string option;
  w_live : Live.req option;  (** [None] with observability off *)
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
  live : Live.t option;
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

let listen_socket address =
  let addr = sockaddr address in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match address with
  | Unix_socket path -> if Sys.file_exists path then Sys.remove path
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
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
  let cache =
    Cache.create ~capacity:config.cache_capacity
      ~on_evict:(fun ~age -> Adept_obs.Histogram.record m_eviction_age age)
      ()
  in
  (* before binding: an invalid rule set must not leave a bound socket *)
  let live =
    Option.map (fun oc -> Live.create oc ~registry ~pool ~cache) config.obs
  in
  {
    config;
    registry;
    pool;
    cache;
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
    live;
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

(* The observability clock; never read with observability off. *)
let now t = match t.live with Some l -> Live.now l | None -> 0.0

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

let counters t =
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
    live = None;
  }

let current_stats t =
  match t.live with
  | None -> counters t
  | Some l -> { (counters t) with live = Some (Live.stats l) }

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

let send t conn id response =
  match response with
  | Protocol.Error kind -> send_error t conn (Some id) kind
  | _ -> send_reply t conn { Protocol.reply_id = id; response }

(* Every answer to a decoded request, inline or reaped, leaves here. *)
let answer t conn id live ?prof ~method_ ~digest ~cache response =
  match live with
  | None -> send t conn id response
  | Some r ->
      let ok = match response with Protocol.Error _ -> false | _ -> true in
      Live.reply r ?prof ~method_ ~digest ~cache ~ok (fun () ->
          send t conn id response)

(* ---------- dispatch ---------- *)

let wake t = ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)

let waiter conn id live ~method_ ~digest =
  { w_conn = conn; w_id = id; w_started = Unix.gettimeofday ();
    w_method = method_; w_digest = digest; w_live = live }

let submit_work t waiter ?coalesce_key ?cache_key ?invalidate ?prof work =
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

let dispatch t conn live { Protocol.id; trace = _; request } =
  t.dispatched <- t.dispatched + 1;
  match request with
  | Protocol.Stats ->
      t.stats_requests <- t.stats_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "stats");
      answer t conn id live ~method_:"stats" ~digest:None ~cache:None
        (Protocol.Stats_ok (current_stats t))
  | (Protocol.Trace_dump | Protocol.Otlp_dump) as dump -> (
      let method_, format =
        match dump with
        | Protocol.Trace_dump -> ("trace", `Chrome)
        | _ -> ("otlp", `Otlp)
      in
      Adept_obs.Counter.inc (t.m_requests method_);
      match t.live with
      | None ->
          send_error t conn (Some id)
            (Protocol.Invalid_params
               "tracing is not enabled on this server (run serve with \
                observability on)")
      | Some l ->
          answer t conn id live ~method_ ~digest:None ~cache:None
            (Live.dump l ~open_conns:(List.length t.conns) format))
  | Protocol.Plan p -> (
      t.plan_requests <- t.plan_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "plan");
      let prof = Option.bind live Live.prof in
      let run_plan () =
        W_plan
          (Result.map
             (fun (text, rho, nodes_used) -> { Cache.text; rho; nodes_used })
             (Render.plan ?prof p))
      in
      let plan_waiter digest =
        waiter conn id live ~method_:"plan" ~digest:(Some digest)
      in
      match plan_cache_key p with
      | None ->
          (* Let the worker path surface the workload error as a typed
             plan failure. *)
          submit_work t (plan_waiter (Protocol.spec_digest p.Protocol.spec))
            ?prof run_plan
      | Some (digest, strategy, wapp, demand) -> (
          let c0 = now t in
          let cached =
            if p.Protocol.use_cache then
              Cache.find t.cache ~digest ~strategy ~wapp ~demand
            else None
          in
          (match live with
          | Some r ->
              Live.stage r Adept_obs.Request_trace.Cache_lookup ~start:c0
          | None -> ());
          if p.Protocol.use_cache then sync_cache_metrics t;
          match cached with
          | Some e ->
              answer t conn id live ~method_:"plan" ~digest:(Some digest)
                ~cache:(Some true)
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
                  entry.waiters <- plan_waiter digest :: entry.waiters
              | _ ->
                  let cache_key =
                    if p.Protocol.use_cache then
                      Some (digest, strategy, wapp, demand)
                    else None
                  in
                  submit_work t (plan_waiter digest) ?coalesce_key:key
                    ?cache_key ?prof run_plan)))
  | Protocol.Replan r ->
      t.replan_requests <- t.replan_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "replan");
      let digest = Protocol.spec_digest r.Protocol.r_spec in
      submit_work t
        (waiter conn id live ~method_:"replan" ~digest:(Some digest))
        ~invalidate:digest (fun () -> W_replan (Render.replan r))
  | Protocol.Observe o ->
      t.observe_requests <- t.observe_requests + 1;
      Adept_obs.Counter.inc (t.m_requests "observe");
      submit_work t
        (waiter conn id live ~method_:"observe" ~digest:None)
        (fun () -> W_observe (Render.observe o))

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
          Cache.add t.cache ~now:(now t) ~digest ~strategy ~wapp ~demand e
      | _ -> ());
      (match (result, entry.invalidate) with
      | (W_replan (Ok _) | W_replan (Error _)), Some digest ->
          ignore (Cache.invalidate_platform t.cache ~digest);
          sync_cache_metrics t
      | _ -> ());
      let response = response_of_result result in
      let now = Unix.gettimeofday () in
      List.iter
        (fun w ->
          (match Option.bind w.w_live Live.sampled with
          | Some trace_id ->
              Adept_obs.Histogram.record_ex t.m_latency (now -. w.w_started)
                ~trace_id
          | None -> Adept_obs.Histogram.record t.m_latency (now -. w.w_started));
          answer t w.w_conn w.w_id w.w_live ?prof:entry.prof ~method_:w.w_method
            ~digest:w.w_digest
            ~cache:(if w.w_method = "plan" then Some false else None)
            response)
        (List.rev entry.waiters))
    (List.rev resolved)

(* ---------- frame handling ---------- *)

let handle_frame t conn ~frame_start payload =
  let parse_start = now t in
  match Protocol.decode_request payload with
  | Protocol.Bad (id, kind) -> send_error t conn id kind
  | Protocol.Request envelope ->
      let live =
        match t.live with
        | None -> None
        | Some l ->
            Some
              (Live.admit l ~conn:conn.c_id ~frame_start ~parse_start
                 envelope.Protocol.trace)
      in
      dispatch t conn live envelope

let read_conn t conn =
  (* Stamp the arrival of the first bytes of a frame: the frame-read
     span runs from here to frame completion.  A second frame completed
     out of the same buffer gets a zero-length read span (its bytes
     were already here). *)
  (match t.live with
  | Some l when Float.is_nan conn.frame_start -> conn.frame_start <- Live.now l
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

(* [Live.tick] or [Live.close], fed what a scrape needs from the loop:
   the cache tallies mirrored into the registry, then the counters. *)
let scrape t f =
  match t.live with
  | None -> ()
  | Some l ->
      let sync () =
        sync_cache_metrics t;
        counters t
      in
      f l ~sync ~inflight:(List.length t.inflight)
        ~open_conns:(List.length t.conns)

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
       would sleep through it.  Observability may cut it shorter, to
       its next scrape. *)
    let timeout =
      match t.live with
      | Some l -> Live.timeout l stop_poll_s
      | None -> stop_poll_s
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
    scrape t Live.tick
  done;
  (* Drained: answer nothing more, tear down. *)
  List.iter (fun c -> close_conn t c) t.conns;
  if !accepting then (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.config.address with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  Domain_pool.shutdown t.pool;
  scrape t Live.close;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Logs.info (fun m -> m "serve: drained, bye")

(* Only touches the atomic and the pipe, so it is safe from a signal
   handler or another thread.  NOTE: on OCaml 5.1 do not embed [serve]
   on a secondary thread next to blocking client calls in the same
   process — with worker domains live, two systhreads parked in blocking
   sections deadlock the runtime's stop-the-world handshake.  Tests
   fork a dedicated server process instead and drain it with SIGTERM
   (see docs/SERVE.md). *)
let stop t =
  Atomic.set stop_requested true;
  try wake t with _ -> ()

let run config = serve (create config)
