open Adept_platform
open Adept_hierarchy
module Params = Adept_model.Params
module Rt = Adept_obs.Request_trace

type selection =
  | Best_prediction
  | Round_robin
  | Random_child of Adept_util.Rng.t
  | Database

(* Per-request aggregation state at one agent: replies collected so far,
   in arrival order, plus the request's service cost for selection.
   [targets] is the routing list snapshot the request was forwarded to;
   failover may shrink the live children while replies are in flight. *)
type pending = {
  mutable received : int;
  expected : int;
  targets : Node.id array;
  mutable answered : Node.id list;
  mutable candidates : (Node.id * float) list;
  req_wapp : float;
}

type agent_state = {
  a_resource : Resource.t;
  mutable children : Node.id array;
  original_children : Node.id array;
  a_parent : Node.id option;
  mutable rr : int;
  inflight : (int, pending) Hashtbl.t;
  strikes : (Node.id, int) Hashtbl.t;
      (* consecutive unanswered forwards per child; two strikes prune *)
}

type server_state = {
  s_resource : Resource.t;
  s_parent : Node.id;
  mutable reserved : float;
      (* MFlop selected for this server but not yet booked.  The root
         maintains this ledger: it adds the chosen server's work at
         decision time and the entry drains when the client's service
         request reaches the server.  Decisions consult the ledger so that
         requests deciding within one scheduling round-trip of each other
         do not herd onto the same server from identical stale
         predictions. *)
}

type element = Agent_el of agent_state | Server_el of server_state

(* Pre-resolved observability instruments: one registry lookup per series
   at deploy time, O(1) array reads on the hot paths.  Per-node slots are
   [None] for nodes outside the hierarchy (or of the other role).  The
   registry get-or-create semantics make series survive generation swaps:
   a redeployed hierarchy accumulates into the same counters. *)
type obs_state = {
  o_msg : Adept_obs.Counter.t array;  (* kind * role, as in Trace *)
  o_msg_mbit : Adept_obs.Counter.t array;
  o_wreq : Adept_obs.Histogram.t option array;
  o_wrep : Adept_obs.Histogram.t option array;
  o_wpre : Adept_obs.Histogram.t option array;
  o_service : Adept_obs.Histogram.t option array;
  o_backlog : Adept_obs.Histogram.t option array;
  o_inflight : Adept_obs.Gauge.t option array;
}

type fault_stats = {
  crashes : int;
  recoveries : int;
  messages_lost : int;
  timeouts : int;
  abandoned : int;
  prunes : int;
  rejoins : int;
  recovery_latencies : float list;
}

(* Mutable accumulator behind the immutable {!fault_stats} snapshot. *)
type fault_counters = {
  mutable c_crashes : int;
  mutable c_recoveries : int;
  mutable c_messages_lost : int;
  mutable c_timeouts : int;
  mutable c_abandoned : int;
  mutable c_prunes : int;
  mutable c_rejoins : int;
  mutable c_recovery_latencies : float list;  (* newest first *)
}

type t = {
  engine : Engine.t;
  params : Params.t;
  platform : Platform.t;
  latency : float;
  elements : element option array;
  root : Node.id;
  trace : Trace.t;
  selection : selection;
  mutable next_req : int;
  continuations : (int, float * (Node.id -> unit)) Hashtbl.t;
      (* per request: the service cost to reserve and the client callback *)
  database : (Node.id, float * float) Hashtbl.t;
      (* monitoring database at the root: server id -> (reported backlog
         seconds, report arrival time) *)
  faults : Faults.t;
  active : bool;  (* some fault can fire; false => pre-fault code path *)
  mutable retired : bool;
      (* a superseded generation: still drains in-flight requests and
         tracks liveness, but stops recording topology events (its
         successor records them — once per event, not once per
         generation) *)
  alive : bool array;
  incarnation : int array;
      (* bumped on every crash and recovery: a callback booked for an
         earlier incarnation belongs to a dead process and is abandoned *)
  crashed_at : float array;
  loss_rng : Adept_util.Rng.t option;
  counters : fault_counters;
  obs : obs_state option;
  rtrace : Rt.t option;
}

(* The causal-chain position of a sampled request: its trace handle and
   the span id the next span links to.  [None] for unsampled requests
   (and everywhere when no store is attached) — every recording helper
   is a no-op then. *)
type rt_ctx = (Rt.handle * int) option

let prune_strikes = 2

(* An element that is alive when the prune lands was struck out unfairly:
   its recovery raced the strike window, or (for an agent) every child
   below it happened to be down at once.  A real element notices on its
   next heartbeat that the parent dropped it and re-registers; this is
   how long that takes.  Dead elements instead rejoin on recovery. *)
let re_register_delay = 0.5

let element t id =
  match t.elements.(id) with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Middleware: node %d not deployed" id)

let resource t id =
  match t.elements.(id) with
  | Some (Agent_el a) -> a.a_resource
  | Some (Server_el s) -> s.s_resource
  | None -> raise Not_found

let root t = t.root

let is_alive t id = t.alive.(id)

(* Deployed elements (agents + servers) currently alive. *)
let alive_count t =
  let n = ref 0 in
  Array.iteri
    (fun id el ->
      match el with Some _ when t.alive.(id) -> incr n | _ -> ())
    t.elements;
  !n

let retire t = t.retired <- true

(* The recording flag is the same bit [retire] sets: a provisional canary
   generation deploys muted (its crashes and prunes are already being
   witnessed by the generation still in charge) and is flipped to
   recording when it is promoted. *)
let set_recording t recording = t.retired <- not recording

let is_deployed t id = id >= 0 && id < Array.length t.elements && t.elements.(id) <> None

let fault_stats t =
  {
    crashes = t.counters.c_crashes;
    recoveries = t.counters.c_recoveries;
    messages_lost = t.counters.c_messages_lost;
    timeouts = t.counters.c_timeouts;
    abandoned = t.counters.c_abandoned;
    prunes = t.counters.c_prunes;
    rejoins = t.counters.c_rejoins;
    recovery_latencies = List.rev t.counters.c_recovery_latencies;
  }

(* Aggregate counters across hierarchy generations: a self-healing run
   retires middlewares and the per-run totals must cover all of them. *)
let merge_fault_stats a b =
  {
    crashes = a.crashes + b.crashes;
    recoveries = a.recoveries + b.recoveries;
    messages_lost = a.messages_lost + b.messages_lost;
    timeouts = a.timeouts + b.timeouts;
    abandoned = a.abandoned + b.abandoned;
    prunes = a.prunes + b.prunes;
    rejoins = a.rejoins + b.rejoins;
    recovery_latencies = a.recovery_latencies @ b.recovery_latencies;
  }

let server_ids t =
  let ids = ref [] in
  Array.iteri
    (fun id el -> match el with Some (Server_el _) -> ids := id :: !ids | _ -> ())
    t.elements;
  List.rev !ids

let agent_ids t =
  let ids = ref [] in
  Array.iteri
    (fun id el -> match el with Some (Agent_el _) -> ids := id :: !ids | _ -> ())
    t.elements;
  List.rev !ids

let record_failure t failure =
  Trace.record_failure t.trace ~time:(Engine.now t.engine) failure

(* ---------- observability plumbing ---------- *)

let all_kinds =
  [| Trace.Sched_request; Trace.Sched_reply; Trace.Service_request; Trace.Service_reply |]

let all_roles = [| Trace.Agent_end; Trace.Server_end; Trace.Client_end |]

let kind_index = function
  | Trace.Sched_request -> 0
  | Trace.Sched_reply -> 1
  | Trace.Service_request -> 2
  | Trace.Service_reply -> 3

let role_index = function
  | Trace.Agent_end -> 0
  | Trace.Server_end -> 1
  | Trace.Client_end -> 2

let obs_cell ~kind ~role = (kind_index kind * 3) + role_index role

let make_obs_state registry ~elements ~tree =
  let module Obs = Adept_obs in
  let n = Array.length elements in
  let levels = Array.make n 0 in
  let rec depths d = function
    | Tree.Server node -> levels.(Node.id node) <- d
    | Tree.Agent (node, children) ->
        levels.(Node.id node) <- d;
        List.iter (depths (d + 1)) children
  in
  depths 0 tree;
  let message_counter name cell =
    let kind = all_kinds.(cell / 3) and role = all_roles.(cell mod 3) in
    Obs.Registry.counter registry
      ~labels:
        (Obs.Label.v
           [
             (Obs.Semconv.l_kind, Trace.kind_name kind);
             (Obs.Semconv.l_role, Trace.role_name role);
           ])
      name
  in
  let node_labels id =
    Obs.Label.v [ Obs.Semconv.node_label id; Obs.Semconv.level_label levels.(id) ]
  in
  let per_node ~agent name =
    Array.init n (fun id ->
        match elements.(id) with
        | Some (Agent_el _) when agent ->
            Some (Obs.Registry.histogram registry ~labels:(node_labels id) name)
        | Some (Server_el _) when not agent ->
            Some (Obs.Registry.histogram registry ~labels:(node_labels id) name)
        | Some _ | None -> None)
  in
  {
    o_msg = Array.init 12 (message_counter Obs.Semconv.messages_total);
    o_msg_mbit = Array.init 12 (message_counter Obs.Semconv.message_mbit_total);
    o_wreq = per_node ~agent:true Obs.Semconv.agent_request_compute_seconds;
    o_wrep = per_node ~agent:true Obs.Semconv.agent_reply_compute_seconds;
    o_wpre = per_node ~agent:false Obs.Semconv.server_prediction_seconds;
    o_service = per_node ~agent:false Obs.Semconv.server_service_seconds;
    o_backlog = per_node ~agent:false Obs.Semconv.server_backlog_seconds;
    o_inflight =
      Array.init n (fun id ->
          match elements.(id) with
          | Some (Agent_el _) ->
              Some
                (Obs.Registry.gauge registry ~labels:(node_labels id)
                   Obs.Semconv.agent_inflight_requests)
          | Some (Server_el _) | None -> None);
  }

let record_msg t ~kind ~role ~size =
  Trace.record_message t.trace ~kind ~role ~size;
  match t.obs with
  | Some o ->
      let cell = obs_cell ~kind ~role in
      Adept_obs.Counter.inc o.o_msg.(cell);
      Adept_obs.Counter.inc ~by:size o.o_msg_mbit.(cell)
  | None -> ()

let record_node_hist t sel ~node v =
  match t.obs with
  | Some o -> (
      match (sel o).(node) with
      | Some h -> Adept_obs.Histogram.record h v
      | None -> ())
  | None -> ()

let inflight_add t ~node delta =
  match t.obs with
  | Some o -> (
      match o.o_inflight.(node) with
      | Some g -> Adept_obs.Gauge.add g delta
      | None -> ())
  | None -> ()

let message_lost t =
  t.counters.c_messages_lost <- t.counters.c_messages_lost + 1;
  record_failure t Trace.Message_lost

(* One independent draw per message from the dedicated loss stream; never
   consulted (and never seeded) on fault-free runs. *)
let message_dropped t =
  match t.loss_rng with
  | None -> false
  | Some rng -> Adept_util.Rng.float rng 1.0 < t.faults.Faults.drop_probability

let effective_bandwidth t base =
  if t.active then base *. Faults.bandwidth_factor t.faults ~now:(Engine.now t.engine)
  else base

(* ---------- crash / recovery / failover machinery ---------- *)

let reset_strikes (a : agent_state) child = Hashtbl.remove a.strikes child

let rejoin_child t ~agent ~child =
  match t.elements.(agent) with
  | Some (Agent_el a) ->
      if not (Array.exists (fun c -> c = child) a.children) then begin
        a.children <- Array.append a.children [| child |];
        reset_strikes a child;
        if not t.retired then begin
          t.counters.c_rejoins <- t.counters.c_rejoins + 1;
          record_failure t (Trace.Child_rejoined (agent, child))
        end
      end
  | Some (Server_el _) | None -> ()

(* A silent child earns a strike; [prune_strikes] consecutive strikes
   remove it from the routing tree (the parent-side failover).  A reply
   clears the child's strikes, so transient message loss rarely prunes a
   healthy child. *)
let strike_child t ~agent ~child =
  match t.elements.(agent) with
  | Some (Agent_el a) when Array.exists (fun c -> c = child) a.children ->
      let s = 1 + Option.value ~default:0 (Hashtbl.find_opt a.strikes child) in
      Hashtbl.replace a.strikes child s;
      if s >= prune_strikes then begin
        a.children <-
          Array.of_list (List.filter (fun c -> c <> child) (Array.to_list a.children));
        Hashtbl.remove a.strikes child;
        if not t.retired then begin
          t.counters.c_prunes <- t.counters.c_prunes + 1;
          record_failure t (Trace.Child_pruned (agent, child));
          if not t.alive.(child) then begin
            let latency = Engine.now t.engine -. t.crashed_at.(child) in
            t.counters.c_recovery_latencies <-
              latency :: t.counters.c_recovery_latencies;
            Trace.record_recovery_latency t.trace ~seconds:latency
          end
        end;
        if t.alive.(child) then begin
          let inc = t.incarnation.(child) in
          Engine.schedule t.engine ~delay:re_register_delay (fun () ->
              if t.alive.(child) && t.incarnation.(child) = inc then
                rejoin_child t ~agent ~child)
        end
      end
  | Some _ | None -> ()

let crash_node t id =
  if t.alive.(id) then begin
    let now = Engine.now t.engine in
    t.alive.(id) <- false;
    t.incarnation.(id) <- t.incarnation.(id) + 1;
    t.crashed_at.(id) <- now;
    (match t.elements.(id) with
    | Some (Agent_el a) ->
        Resource.interrupt a.a_resource ~now;
        inflight_add t ~node:id (-.float_of_int (Hashtbl.length a.inflight));
        Hashtbl.reset a.inflight
    | Some (Server_el s) ->
        Resource.interrupt s.s_resource ~now;
        s.reserved <- 0.0
    | None -> ());
    if not t.retired then begin
      t.counters.c_crashes <- t.counters.c_crashes + 1;
      record_failure t (Trace.Node_crash id)
    end
  end

let recover_node t id =
  if not t.alive.(id) then begin
    let now = Engine.now t.engine in
    t.alive.(id) <- true;
    t.incarnation.(id) <- t.incarnation.(id) + 1;
    (match t.elements.(id) with
    | Some (Agent_el a) -> Resource.interrupt a.a_resource ~now
    | Some (Server_el s) -> Resource.interrupt s.s_resource ~now
    | None -> ());
    if not t.retired then begin
      t.counters.c_recoveries <- t.counters.c_recoveries + 1;
      record_failure t (Trace.Node_recover id)
    end;
    (* Re-registration: the recovered element reconnects to its parent,
       and a recovered agent readopts whichever of its original children
       are up (they may have been pruned while it was away). *)
    let parent =
      match t.elements.(id) with
      | Some (Agent_el a) -> a.a_parent
      | Some (Server_el s) -> Some s.s_parent
      | None -> None
    in
    (match parent with
    | Some p when t.alive.(p) -> rejoin_child t ~agent:p ~child:id
    | Some _ | None -> ());
    match t.elements.(id) with
    | Some (Agent_el a) ->
        Array.iter
          (fun c -> if t.alive.(c) then rejoin_child t ~agent:id ~child:c)
          a.original_children
    | Some (Server_el _) | None -> ()
  end

let crash_time t id = t.crashed_at.(id)

let deploy ?(trace = Trace.disabled) ?obs ?rtrace ?(selection = Best_prediction)
    ?monitoring_period ?(faults = Faults.none) ?(initial_dead = []) ~engine ~params
    ~platform tree =
  (match monitoring_period with
  | Some p when p <= 0.0 || not (Float.is_finite p) ->
      invalid_arg "Middleware.deploy: monitoring_period must be positive and finite"
  | Some _ | None -> ());
  if selection = Database && monitoring_period = None then
    invalid_arg "Middleware.deploy: Database selection requires a monitoring_period";
  (match Validate.check ~platform tree with
  | Ok () -> ()
  | Error errs ->
      invalid_arg
        ("Middleware.deploy: invalid hierarchy: "
        ^ String.concat "; " (List.map Validate.error_to_string errs)));
  let elements = Array.make (Platform.size platform) None in
  let mk_resource node =
    Resource.create ~name:(Node.name node) ~power:(Node.power node)
  in
  let rec instantiate parent = function
    | Tree.Server node ->
        let parent =
          match parent with
          | Some p -> p
          | None -> invalid_arg "Middleware.deploy: root server"
        in
        elements.(Node.id node) <-
          Some
            (Server_el
               { s_resource = mk_resource node; s_parent = parent; reserved = 0.0 })
    | Tree.Agent (node, children) ->
        let child_ids =
          Array.of_list (List.map (fun c -> Node.id (Tree.root_node c)) children)
        in
        elements.(Node.id node) <-
          Some
            (Agent_el
               {
                 a_resource = mk_resource node;
                 children = child_ids;
                 original_children = Array.copy child_ids;
                 a_parent = parent;
                 rr = 0;
                 inflight = Hashtbl.create 64;
                 strikes = Hashtbl.create 8;
               });
        List.iter (instantiate (Some (Node.id node))) children
  in
  instantiate None tree;
  let active = not (Faults.is_none faults) in
  let t =
    {
      engine;
      params;
      platform;
      latency = Link.latency (Platform.link platform);
      elements;
      root = Node.id (Tree.root_node tree);
      trace;
      selection;
      next_req = 0;
      continuations = Hashtbl.create 64;
      database = Hashtbl.create 64;
      faults;
      active;
      retired = false;
      alive = Array.make (Platform.size platform) true;
      incarnation = Array.make (Platform.size platform) 0;
      crashed_at = Array.make (Platform.size platform) 0.0;
      loss_rng =
        (if active && faults.Faults.drop_probability > 0.0 then
           Some (Adept_util.Rng.create faults.Faults.loss_seed)
         else None);
      counters =
        {
          c_crashes = 0;
          c_recoveries = 0;
          c_messages_lost = 0;
          c_timeouts = 0;
          c_abandoned = 0;
          c_prunes = 0;
          c_rejoins = 0;
          c_recovery_latencies = [];
        };
      obs = Option.map (fun registry -> make_obs_state registry ~elements ~tree) obs;
      rtrace;
    }
  in
  (* Liveness inherited from a superseded generation: a node kept in the
     hierarchy despite being down right now starts dead, with its original
     crash time, so failover strikes it out and its pending recovery event
     genuinely revives it.  The crash itself is not re-counted — the
     generation that witnessed it already did. *)
  (if initial_dead <> [] && not active then
     invalid_arg "Middleware.deploy: initial_dead requires fault injection");
  List.iter
    (fun (id, crashed_at) ->
      if id >= 0 && id < Array.length elements && elements.(id) <> None then begin
        t.alive.(id) <- false;
        t.crashed_at.(id) <- crashed_at
      end)
    initial_dead;
  (* Periodic monitoring: every server reports its backlog to the root's
     database, paying the message at both ends (lane at the server, port
     at the root — monitoring traffic really does contend with
     scheduling). *)
  (match monitoring_period with
  | None -> ()
  | Some period ->
      let root_res =
        match elements.(t.root) with
        | Some (Agent_el a) -> a.a_resource
        | Some (Server_el _) | None -> invalid_arg "Middleware.deploy: no root agent"
      in
      Array.iteri
        (fun id el ->
          match el with
          | Some (Server_el s) ->
              let rec report () =
                (if (not t.active) || (t.alive.(id) && t.alive.(t.root)) then
                   let backlog =
                     Resource.backlog s.s_resource ~now:(Engine.now engine)
                   in
                   Network.transfer engine
                     ~bandwidth:
                       (effective_bandwidth t (Platform.bandwidth platform id t.root))
                     ~latency:t.latency ~src:(Network.Lane s.s_resource)
                     ~src_size:params.Params.server.srep ~dst:(Network.Port root_res)
                     ~dst_size:params.Params.agent.srep
                     ~on_delivered:(fun () ->
                       Hashtbl.replace t.database id (backlog, Engine.now engine))
                     ());
                Engine.schedule engine ~delay:period report
              in
              (* desynchronise first reports across servers *)
              Engine.schedule engine
                ~delay:(period *. float_of_int (id + 1) /. float_of_int (Array.length elements))
                report
          | Some (Agent_el _) | None -> ())
        elements);
  (* Install the fault schedule.  Events aimed at nodes outside the
     hierarchy are ignored (the platform may be larger than the tree), and
     so are events already in the past — a hierarchy deployed mid-run by
     the controller only sees what is still to come. *)
  (if active then
     let now = Engine.now engine in
     List.iter
       (fun { Faults.node; at; kind } ->
         if
           at >= now && node >= 0
           && node < Array.length elements
           && elements.(node) <> None
         then
           Engine.schedule_at engine ~time:at (fun () ->
               match kind with
               | Faults.Crash -> crash_node t node
               | Faults.Recover -> recover_node t node))
       faults.Faults.node_events);
  t

let bandwidth_between t a b = effective_bandwidth t (Platform.bandwidth t.platform a b)

(* Bandwidth for messages between a platform node and a client machine:
   the node's intra-cluster bandwidth (clients are not modelled as
   bottlenecks, only the node-side port cost matters). *)
let bandwidth_to_client t id = effective_bandwidth t (Platform.bandwidth t.platform id id)

(* Compute booked for [owner]'s current incarnation; a crash (or a crash
   plus recovery) before the booking completes voids the continuation —
   the process that asked for the work no longer exists. *)
let book_compute t resource ~owner ~work k =
  let now = Engine.now t.engine in
  let duration = work /. Resource.power resource in
  let finish = Resource.book resource ~now ~duration in
  let incarnation = t.incarnation.(owner) in
  Engine.schedule_at t.engine ~time:finish (fun () ->
      if (not t.active) || t.incarnation.(owner) = incarnation then k duration)

(* ---------- request tracing ---------- *)

(* A computation on a sampled request's causal chain: the span runs from
   when the element could start ([start], the triggering delivery) to
   now (the booked finish), so queue wait behind earlier work is
   included and consecutive spans tile exactly. *)
let record_compute t ~(rt : rt_ctx) ~step ~node ~start : rt_ctx =
  match (t.rtrace, rt) with
  | Some store, Some (h, parent) ->
      let id =
        Rt.add_span store h ~parent ~kind:(Rt.Compute step) ~node ~start
          ~stop:(Engine.now t.engine)
      in
      Some (h, id)
  | _ -> rt

(* A traced message: its three legs — sender port time (queue wait
   included), wire latency, receiver port time — are recorded on the
   chain and [on_delivered] receives the chain advanced past the receive
   leg.  Tracing only attaches an observation callback to the transfer,
   so the scheduled events are identical to an untraced run. *)
let transfer_traced t ~(rt : rt_ctx) ~msg ~src_node ~dst_node ~bandwidth ~src
    ~src_size ~dst ~dst_size ~on_delivered =
  match (t.rtrace, rt) with
  | Some store, Some (h, parent) ->
      let handoff = Engine.now t.engine in
      let times = ref None in
      Network.transfer t.engine ~bandwidth ~latency:t.latency
        ~on_times:(fun ~sent_at ~arrival -> times := Some (sent_at, arrival))
        ~src ~src_size ~dst ~dst_size
        ~on_delivered:(fun () ->
          let rt =
            match !times with
            | None -> rt
            | Some (sent_at, arrival) ->
                let s =
                  Rt.add_span store h ~parent ~kind:(Rt.Send msg) ~node:src_node
                    ~start:handoff ~stop:sent_at
                in
                let w =
                  Rt.add_span store h ~parent:s ~kind:(Rt.Wire msg) ~node:(-1)
                    ~start:sent_at ~stop:arrival
                in
                let r =
                  Rt.add_span store h ~parent:w ~kind:(Rt.Recv msg) ~node:dst_node
                    ~start:arrival ~stop:(Engine.now t.engine)
                in
                Some (h, r)
          in
          on_delivered rt)
        ()
  | _ ->
      Network.transfer t.engine ~bandwidth ~latency:t.latency ~src ~src_size ~dst
        ~dst_size
        ~on_delivered:(fun () -> on_delivered None)
        ()

let argmin_candidate candidates ~effective =
  (* One fold carrying the winner's raw prediction along, so reporting it
     upward needs no second lookup over the candidate list. *)
  match
    Array.fold_left
      (fun best (id, raw) ->
        let adjusted = effective id in
        match best with
        | Some (bid, _, bp) when bp < adjusted || (bp = adjusted && bid <= id) ->
            best
        | Some _ | None -> Some (id, raw, adjusted))
      None candidates
  with
  | Some (id, raw, _) -> (id, raw)
  | None -> invalid_arg "Middleware.argmin_candidate: no candidates"

let choose_candidate t (a : agent_state) pending =
  let candidates = Array.of_list (List.rev pending.candidates) in
  match t.selection with
  | Best_prediction ->
      (* The paper's agents "select potential servers from a list of
         servers maintained in the database by frequent monitoring"
         (footnote 1): the decision reads the current load picture —
         booked backlog plus the reservation ledger of work promised by
         decisions whose service requests are still in flight — rather
         than the prediction snapshots the replies carried, which go stale
         within one scheduling round-trip and would herd concurrent
         requests onto one server. *)
      let now = Engine.now t.engine in
      let effective id =
        match t.elements.(id) with
        | Some (Server_el s) when t.alive.(id) ->
            let w = Resource.power s.s_resource in
            Resource.backlog s.s_resource ~now
            +. (s.reserved /. w)
            +. (pending.req_wapp /. w)
        | Some _ | None -> Float.infinity
      in
      argmin_candidate candidates ~effective
  | Database ->
      (* Same decision, but from the last periodic report instead of
         fresh state: the reported backlog is decayed by the time since
         the report (the server has been draining meanwhile) and
         corrected by the reservation ledger. *)
      let now = Engine.now t.engine in
      let effective id =
        match t.elements.(id) with
        | Some (Server_el s) when t.alive.(id) ->
            let w = Resource.power s.s_resource in
            let reported =
              match Hashtbl.find_opt t.database id with
              | Some (backlog, at) -> Float.max 0.0 (backlog -. (now -. at))
              | None -> 0.0
            in
            reported +. (s.reserved /. w) +. (pending.req_wapp /. w)
        | Some _ | None -> Float.infinity
      in
      argmin_candidate candidates ~effective
  | Round_robin ->
      let i = a.rr mod Array.length candidates in
      a.rr <- a.rr + 1;
      candidates.(i)
  | Random_child rng -> Adept_util.Rng.pick rng candidates

(* The scheduling phase, message by message.  [handle_request] runs when a
   request has been fully received at [id]; [handle_reply] when a child's
   reply has been fully received at agent [id]. *)
let rec handle_request t ~rt ~req_id ~wapp id =
  match element t id with
  | Agent_el a ->
      let arrived = Engine.now t.engine in
      book_compute t a.a_resource ~owner:id ~work:t.params.Params.agent.wreq
        (fun seconds ->
          Trace.record_agent_request_compute t.trace ~seconds;
          record_node_hist t (fun o -> o.o_wreq) ~node:id seconds;
          let rt = record_compute t ~rt ~step:Rt.Wreq ~node:id ~start:arrived in
          let targets = Array.copy a.children in
          if Array.length targets = 0 then
            (* every child pruned: stay silent and let the upstream
               patience (or the client's timeout) handle the hole *)
            ()
          else begin
            Hashtbl.replace a.inflight req_id
              {
                received = 0;
                expected = Array.length targets;
                targets;
                answered = [];
                candidates = [];
                req_wapp = wapp;
              };
            inflight_add t ~node:id 1.0;
            Array.iter
              (fun child -> forward_down t ~rt ~req_id ~wapp ~from:id ~child)
              targets;
            if t.active then
              Engine.schedule t.engine ~delay:t.faults.Faults.patience (fun () ->
                  patience_expired t ~req_id ~agent:id)
          end)
  | Server_el s ->
      (* Prediction work charges the port (it steals cycles from any
         running application) but the reply is not queued behind booked
         services: the servant thread answers after Wpre/w of wall time.
         The prediction itself is "when would your job finish if you chose
         me now": current queue, the prediction step, then the service. *)
      let now = Engine.now t.engine in
      let backlog = Resource.backlog s.s_resource ~now in
      let wpre_duration =
        t.params.Params.server.wpre /. Resource.power s.s_resource
      in
      Resource.charge s.s_resource ~now ~duration:wpre_duration;
      Trace.record_server_prediction t.trace ~seconds:wpre_duration;
      record_node_hist t (fun o -> o.o_wpre) ~node:id wpre_duration;
      record_node_hist t (fun o -> o.o_backlog) ~node:id backlog;
      let prediction =
        backlog +. wpre_duration +. (wapp /. Resource.power s.s_resource)
      in
      let incarnation = t.incarnation.(id) in
      Engine.schedule t.engine ~delay:wpre_duration (fun () ->
          if (not t.active) || t.incarnation.(id) = incarnation then begin
            let rt = record_compute t ~rt ~step:Rt.Wpre ~node:id ~start:now in
            send_reply_up t ~rt ~req_id ~from:id ~to_:s.s_parent
              ~candidate:(id, prediction)
          end)

and forward_down t ~rt ~req_id ~wapp ~from ~child =
  let src_res = resource t from in
  let dst_is_agent, dst =
    match element t child with
    | Agent_el a -> (true, Network.Port a.a_resource)
    | Server_el s -> (false, Network.Lane s.s_resource)
  in
  let src_size = t.params.Params.agent.sreq in
  let dst_size =
    if dst_is_agent then t.params.Params.agent.sreq else t.params.Params.server.sreq
  in
  record_msg t ~kind:Trace.Sched_request ~role:Trace.Agent_end
    ~size:src_size;
  if message_dropped t then begin
    (* the sender still pays its port time; nothing arrives *)
    message_lost t;
    Network.transfer t.engine
      ~bandwidth:(bandwidth_between t from child)
      ~latency:t.latency ~src:(Network.Port src_res) ~src_size ~dst:Network.Instant
      ~dst_size:0.0
      ~on_delivered:(fun () -> ())
      ()
  end
  else begin
    record_msg t ~kind:Trace.Sched_request
      ~role:(if dst_is_agent then Trace.Agent_end else Trace.Server_end)
      ~size:dst_size;
    transfer_traced t ~rt ~msg:Rt.Forward ~src_node:from ~dst_node:child
      ~bandwidth:(bandwidth_between t from child)
      ~src:(Network.Port src_res) ~src_size ~dst ~dst_size
      ~on_delivered:(fun rt ->
        if t.active && not t.alive.(child) then message_lost t
        else handle_request t ~rt ~req_id ~wapp child)
  end

and send_reply_up t ~rt ~req_id ~from ~to_ ~candidate =
  let src_is_agent, src =
    match element t from with
    | Agent_el a -> (true, Network.Port a.a_resource)
    | Server_el s -> (false, Network.Lane s.s_resource)
  in
  let src_size =
    if src_is_agent then t.params.Params.agent.srep else t.params.Params.server.srep
  in
  let dst_res =
    match element t to_ with
    | Agent_el a -> a.a_resource
    | Server_el _ -> invalid_arg "Middleware: reply sent to a server"
  in
  let dst_size = t.params.Params.agent.srep in
  record_msg t ~kind:Trace.Sched_reply
    ~role:(if src_is_agent then Trace.Agent_end else Trace.Server_end)
    ~size:src_size;
  if message_dropped t then begin
    message_lost t;
    Network.transfer t.engine
      ~bandwidth:(bandwidth_between t from to_)
      ~latency:t.latency ~src ~src_size ~dst:Network.Instant ~dst_size:0.0
      ~on_delivered:(fun () -> ())
      ()
  end
  else begin
    record_msg t ~kind:Trace.Sched_reply ~role:Trace.Agent_end
      ~size:dst_size;
    transfer_traced t ~rt ~msg:Rt.Reply ~src_node:from ~dst_node:to_
      ~bandwidth:(bandwidth_between t from to_)
      ~src ~src_size ~dst:(Network.Port dst_res) ~dst_size
      ~on_delivered:(fun rt ->
        if t.active && not t.alive.(to_) then message_lost t
        else handle_reply t ~rt ~req_id ~agent:to_ ~child:from ~candidate)
  end

and handle_reply t ~rt ~req_id ~agent ~child ~candidate =
  match element t agent with
  | Server_el _ -> invalid_arg "Middleware: reply delivered to a server"
  | Agent_el a -> (
      match Hashtbl.find_opt a.inflight req_id with
      | None ->
          (* Fault runs produce stale replies: the request was finalised
             by the patience timer, or the agent crashed and restarted. *)
          if not t.active then invalid_arg "Middleware: reply for unknown request"
      | Some pending ->
          pending.received <- pending.received + 1;
          pending.answered <- child :: pending.answered;
          if t.active then reset_strikes a child;
          pending.candidates <- candidate :: pending.candidates;
          if pending.received = pending.expected then begin
            Hashtbl.remove a.inflight req_id;
            inflight_add t ~node:agent (-1.0);
            (* The chain continues from the reply that completed the set:
               the last-arriving child is the aggregation's causal
               trigger, so the [Wrep] span links to its receive leg. *)
            finalize_request t ~rt ~req_id ~agent a pending
          end)

and patience_expired t ~req_id ~agent =
  match t.elements.(agent) with
  | Some (Agent_el a) when t.alive.(agent) -> (
      match Hashtbl.find_opt a.inflight req_id with
      | None -> ()  (* all replies arrived in time *)
      | Some pending ->
          Hashtbl.remove a.inflight req_id;
          inflight_add t ~node:agent (-1.0);
          Array.iter
            (fun child ->
              if not (List.mem child pending.answered) then
                strike_child t ~agent ~child)
            pending.targets;
          (* answer with whatever arrived; with no candidate at all the
             agent stays silent and the caller's own timeout handles it.
             No causal reply triggered this, so the trace chain breaks
             here (fault runs only — critical paths are exact fault-free). *)
          if pending.candidates <> [] then
            finalize_request t ~rt:None ~req_id ~agent a pending)
  | Some _ | None -> ()

and finalize_request t ~rt ~req_id ~agent a pending =
  let triggered = Engine.now t.engine in
  let degree = pending.received in
  let work = Params.wrep t.params ~degree in
  book_compute t a.a_resource ~owner:agent ~work (fun seconds ->
      Trace.record_agent_reply_compute t.trace ~degree ~seconds;
      record_node_hist t (fun o -> o.o_wrep) ~node:agent seconds;
      let rt = record_compute t ~rt ~step:Rt.Wrep ~node:agent ~start:triggered in
      let chosen = choose_candidate t a pending in
      match a.a_parent with
      | Some parent ->
          send_reply_up t ~rt ~req_id ~from:agent ~to_:parent ~candidate:chosen
      | None -> (
          (* Root: answer the client. *)
          match Hashtbl.find_opt t.continuations req_id with
          | None ->
              (* the client gave up on this round trip and re-submitted *)
              if not t.active then
                invalid_arg "Middleware: request has no continuation"
          | Some (req_wapp, continuation) ->
              let src_size = t.params.Params.agent.srep in
              record_msg t ~kind:Trace.Sched_reply
                ~role:Trace.Agent_end ~size:src_size;
              Hashtbl.remove t.continuations req_id;
              (match element t (fst chosen) with
              | Server_el s -> s.reserved <- s.reserved +. req_wapp
              | Agent_el _ -> invalid_arg "Middleware: chose an agent");
              transfer_traced t ~rt ~msg:Rt.Answer ~src_node:agent ~dst_node:(-1)
                ~bandwidth:(bandwidth_to_client t agent)
                ~src:(Network.Port a.a_resource) ~src_size ~dst:Network.Instant
                ~dst_size:0.0
                ~on_delivered:(fun rt ->
                  (* Park the chain position on the handle: the service
                     phase is initiated by the client (a separate call)
                     and resumes the chain from here. *)
                  (match rt with
                  | Some (h, tl) -> Rt.set_tail h tl
                  | None -> ());
                  continuation (fst chosen))))

let submit_once t ~rt ~req_id ~wapp =
  let dst_size = t.params.Params.agent.sreq in
  let root_res = resource t t.root in
  record_msg t ~kind:Trace.Sched_request ~role:Trace.Agent_end
    ~size:dst_size;
  if message_dropped t then begin
    message_lost t;
    Network.transfer t.engine
      ~bandwidth:(bandwidth_to_client t t.root)
      ~latency:t.latency ~src:Network.Instant ~src_size:0.0 ~dst:Network.Instant
      ~dst_size:0.0
      ~on_delivered:(fun () -> ())
      ()
  end
  else
    transfer_traced t ~rt ~msg:Rt.Submit ~src_node:(-1) ~dst_node:t.root
      ~bandwidth:(bandwidth_to_client t t.root)
      ~src:Network.Instant ~src_size:0.0 ~dst:(Network.Port root_res) ~dst_size
      ~on_delivered:(fun rt ->
        if t.active && not t.alive.(t.root) then message_lost t
        else handle_request t ~rt ~req_id ~wapp t.root)

let submit t ~wapp ?rt ?on_failed ~on_scheduled () =
  (* Each (re-)submission opens a fresh chain head (parent -1). *)
  let rt : rt_ctx = Option.map (fun h -> (h, -1)) rt in
  if not t.active then begin
    let req_id = t.next_req in
    t.next_req <- t.next_req + 1;
    Hashtbl.replace t.continuations req_id (wapp, fun server -> on_scheduled ~server);
    submit_once t ~rt ~req_id ~wapp
  end
  else begin
    (* Round-trip supervision: if the scheduling reply does not arrive
       within the timeout, abandon that round trip and re-submit with an
       exponentially backed-off deadline; after [max_retries] extra
       attempts the request is abandoned. *)
    let rec attempt ~retries_left ~timeout =
      let req_id = t.next_req in
      t.next_req <- t.next_req + 1;
      Hashtbl.replace t.continuations req_id (wapp, fun server -> on_scheduled ~server);
      submit_once t ~rt ~req_id ~wapp;
      Engine.schedule t.engine ~delay:timeout (fun () ->
          if Hashtbl.mem t.continuations req_id then begin
            Hashtbl.remove t.continuations req_id;
            if retries_left > 0 then begin
              t.counters.c_timeouts <- t.counters.c_timeouts + 1;
              record_failure t Trace.Request_timeout;
              attempt ~retries_left:(retries_left - 1)
                ~timeout:(timeout *. t.faults.Faults.backoff)
            end
            else begin
              t.counters.c_abandoned <- t.counters.c_abandoned + 1;
              record_failure t Trace.Request_abandoned;
              match on_failed with Some f -> f () | None -> ()
            end
          end)
    in
    attempt ~retries_left:t.faults.Faults.max_retries ~timeout:t.faults.Faults.timeout
  end

let request_service t ~server ?rt ?on_failed ~wapp ~on_done () =
  match element t server with
  | Agent_el _ -> invalid_arg "Middleware.request_service: target is an agent"
  | Server_el s ->
      (* Resume the chain where the scheduling answer parked it. *)
      let rt : rt_ctx = Option.map (fun h -> (h, Rt.tail h)) rt in
      let dst_size = t.params.Params.server.sreq in
      record_msg t ~kind:Trace.Service_request ~role:Trace.Server_end
        ~size:dst_size;
      (* The promised work is now being submitted; it will appear in the
         server's booked backlog as soon as the request arrives, so the
         ledger entry drains here. *)
      s.reserved <- Float.max 0.0 (s.reserved -. wapp);
      let settled = ref false in
      let on_done () =
        if not !settled then begin
          settled := true;
          on_done ()
        end
      in
      let service_dropped = message_dropped t in
      if service_dropped then message_lost t
      else
        transfer_traced t ~rt ~msg:Rt.Service_request ~src_node:(-1)
          ~dst_node:server
          ~bandwidth:(bandwidth_to_client t server)
          ~src:Network.Instant ~src_size:0.0 ~dst:(Network.Port s.s_resource)
          ~dst_size
          ~on_delivered:(fun rt ->
            if t.active && not t.alive.(server) then message_lost t
            else begin
              let arrived = Engine.now t.engine in
              book_compute t s.s_resource ~owner:server ~work:wapp (fun seconds ->
                  record_node_hist t (fun o -> o.o_service) ~node:server seconds;
                  let rt =
                    record_compute t ~rt ~step:Rt.Service ~node:server ~start:arrived
                  in
                  (* The response leaves as soon as the computation ends: the
                     send charges port capacity but is not queued behind work
                     booked after this job (a strict-FIFO send would trap every
                     finished reply behind the whole compute backlog). *)
                  let src_size = t.params.Params.server.srep in
                  record_msg t ~kind:Trace.Service_reply
                    ~role:Trace.Server_end ~size:src_size;
                  if message_dropped t then begin
                    message_lost t;
                    Network.transfer t.engine
                      ~bandwidth:(bandwidth_to_client t server)
                      ~latency:t.latency ~src:(Network.Lane s.s_resource) ~src_size
                      ~dst:Network.Instant ~dst_size:0.0
                      ~on_delivered:(fun () -> ())
                      ()
                  end
                  else
                    transfer_traced t ~rt ~msg:Rt.Service_reply ~src_node:server
                      ~dst_node:(-1)
                      ~bandwidth:(bandwidth_to_client t server)
                      ~src:(Network.Lane s.s_resource) ~src_size
                      ~dst:Network.Instant ~dst_size:0.0
                      ~on_delivered:(fun _rt -> on_done ()))
            end);
      if t.active then
        Engine.schedule t.engine ~delay:t.faults.Faults.service_timeout (fun () ->
            if not !settled then begin
              settled := true;
              t.counters.c_abandoned <- t.counters.c_abandoned + 1;
              record_failure t Trace.Request_abandoned;
              match on_failed with Some f -> f () | None -> ()
            end)
