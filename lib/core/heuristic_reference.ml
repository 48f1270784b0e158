open Adept_platform
open Adept_hierarchy
module Params = Adept_model.Params
module Demand = Adept_model.Demand

type probe = { target : float; feasible : bool; achieved_rho : float; nodes_used : int }

type result = {
  tree : Tree.t;
  predicted_rho : float;
  probes : probe list;
  demand_met : bool;
}

(* Working representation during the level-by-level build. *)
type ag = { anode : Node.t; cap : int; mutable kids : kid list }
and kid = Kagent of ag | Kserver of Node.t

let rec tree_of_ag a =
  Tree.agent a.anode
    (List.rev_map (function Kagent c -> tree_of_ag c | Kserver s -> Tree.server s) a.kids)

(* Agent lightening: the sorted order puts the strongest nodes in agent
   positions, but once the target [T] is fixed, any node whose Eq. 14
   scheduling power at the agent's degree still clears [T] can hold that
   position.  Swapping the strongest agents with the weakest such servers
   moves compute power to the service side at no scheduling cost — a
   strict improvement over the paper's strongest-first rule (DESIGN.md
   §5).

   The swap demands a wide safety margin ([lighten_slack]) rather than bare
   feasibility: an agent operating close to its Eq. 14 limit stretches the
   scheduling round-trip, and during that window concurrent requests select
   servers from stale predictions and convoy onto the same machine.  The
   steady-state model cannot express this, but the simulator (like the real
   middleware) pays it dearly on long-running services. *)
let lighten_slack = 4.0

let lighten_agents params ~bandwidth ~target tree =
  let swap_once tree =
    let agents =
      List.sort
        (fun (a, _) (b, _) -> Node.compare_by_power_desc a b)
        (Tree.agents_with_degree tree)
    in
    let servers =
      List.sort (fun a b -> Node.compare_by_power_desc b a) (Tree.servers tree)
    in
    let feasible server degree =
      Sched_power.agent params ~bandwidth ~node:server ~children:degree
      >= lighten_slack *. target
    in
    let rec find_swap = function
      | [] -> None
      | (agent, degree) :: rest ->
          let candidate =
            List.find_opt
              (fun server ->
                Node.power server < Node.power agent && feasible server degree)
              servers
          in
          (match candidate with
          | Some server -> Some (agent, server)
          | None -> find_swap rest)
    in
    match find_swap agents with
    | None -> None
    | Some (agent, server) ->
        let substitute node =
          if Node.id node = Node.id agent then server
          else if Node.id node = Node.id server then agent
          else node
        in
        let rec rewrite = function
          | Tree.Server n -> Tree.server (substitute n)
          | Tree.Agent (n, children) ->
              Tree.agent (substitute n) (List.map rewrite children)
        in
        Some (rewrite tree)
  in
  let rec loop tree fuel =
    if fuel = 0 then tree
    else match swap_once tree with None -> tree | Some tree' -> loop tree' (fuel - 1)
  in
  loop tree (Tree.size tree)

(* Smallest prefix of [sorted.(from..)] whose Eq. 15 service power reaches
   [target], skipping nodes whose own prediction throughput is below the
   target.  Returns the server nodes, or None if even all of them fall
   short. *)
let min_servers params ~bandwidth ~wapp ~target sorted ~from =
  let comm =
    (params.Params.server.sreq +. params.Params.server.srep) /. bandwidth
  in
  let budget = (1.0 /. target) -. comm in
  if budget <= 0.0 then None
  else begin
    (* service >= target  <=>  (1 + Wpre * sum 1/wapp) / sum (w/wapp) <= budget *)
    let n = Array.length sorted in
    let rec scan i sum_rate sum_inv acc =
      let numer = 1.0 +. (params.Params.server.wpre *. sum_inv) in
      if sum_rate > 0.0 && numer /. sum_rate <= budget then Some (List.rev acc)
      else if i >= n then None
      else
        let node = sorted.(i) in
        let usable =
          Sched_power.server params ~bandwidth ~node >= target
        in
        if usable then
          scan (i + 1)
            (sum_rate +. (Node.power node /. wapp))
            (sum_inv +. (1.0 /. wapp))
            (node :: acc)
        else scan (i + 1) sum_rate sum_inv acc
    in
    scan from 0.0 0.0 []
  end

(* Round-robin children into open slots (frontier remainder + new agents),
   never exceeding an agent's capacity. *)
let distribute ~slots children =
  let open_slots = Array.of_list slots in
  let n = Array.length open_slots in
  let cursor = ref 0 in
  let place kid =
    let rec seek tried =
      if tried >= n then invalid_arg "Heuristic.distribute: no capacity left";
      let a = open_slots.(!cursor) in
      cursor := (!cursor + 1) mod n;
      if List.length a.kids < a.cap then a.kids <- kid :: a.kids else seek (tried + 1)
    in
    seek 0
  in
  List.iter place children

let build params ~bandwidth ~wapp ~target sorted =
  let n = Array.length sorted in
  let cap_of ~node =
    Sched_power.supported_children params ~bandwidth ~node ~floor:target
      ~max_children:(n - 1)
  in
  let root_cap = cap_of ~node:sorted.(0) in
  if root_cap < 1 then None
  else begin
    let root = { anode = sorted.(0); cap = root_cap; kids = [] } in
    (* [q] is the next unused index in the sorted order. *)
    let rec level frontier q =
      let slots =
        List.fold_left (fun acc a -> acc + (a.cap - List.length a.kids)) 0 frontier
      in
      if slots <= 0 || q >= n then None
      else begin
        (* Scan j = number of frontier slots converted into new agents
           (the shift_nodes move); j = 0 is the all-servers finish. *)
        let rec try_j j =
          if j > min slots (n - q) then `No_finish
          else begin
            let agent_nodes = Array.sub sorted q j in
            let caps = Array.map (fun node -> cap_of ~node) agent_nodes in
            (* A new non-root agent is useless below two children; the
               sorted order makes capacity non-increasing, so stop. *)
            if j > 0 && caps.(j - 1) < 2 then `No_finish
            else begin
              let deep = Array.fold_left ( + ) 0 caps in
              let direct = slots - j in
              match
                min_servers params ~bandwidth ~wapp ~target sorted ~from:(q + j)
              with
              | Some servers
                when List.length servers <= direct + deep
                     && (j = 0 || List.length servers >= 2 * j) ->
                  `Finish (Array.to_list agent_nodes, caps, servers)
              | Some _ | None -> try_j (j + 1)
            end
          end
        in
        match try_j 0 with
        | `Finish (agent_nodes, caps, servers) ->
            let new_agents =
              List.mapi
                (fun i node -> { anode = node; cap = caps.(i); kids = [] })
                agent_nodes
            in
            distribute ~slots:frontier (List.map (fun a -> Kagent a) new_agents);
            (* Guarantee two servers per new agent before balancing the rest. *)
            let rec seed agents servers =
              match (agents, servers) with
              | [], rest -> rest
              | a :: more, s1 :: s2 :: rest ->
                  a.kids <- Kserver s2 :: Kserver s1 :: a.kids;
                  seed more rest
              | _ :: _, _ -> invalid_arg "Heuristic.build: seeding underflow"
            in
            let rest = seed new_agents servers in
            distribute ~slots:(frontier @ new_agents)
              (List.map (fun s -> Kserver s) rest);
            Some root
          | `No_finish ->
            (* Commit a full level: every remaining slot becomes an agent,
               then grow the next level (nodes without capacity for two
               children cannot anchor a subtree, and capacity is monotone
               along the sorted order). *)
            let takeable =
              let rec count i acc =
                if acc >= slots || q + i >= n then acc
                else if cap_of ~node:sorted.(q + i) >= 2 then count (i + 1) (acc + 1)
                else acc
              in
              count 0 0
            in
            if takeable = 0 then None
            else begin
              let new_agents =
                List.init takeable (fun i ->
                    let node = sorted.(q + i) in
                    { anode = node; cap = cap_of ~node; kids = [] })
              in
              distribute ~slots:frontier (List.map (fun a -> Kagent a) new_agents);
              level new_agents (q + takeable)
            end
      end
    in
    match level [ root ] 1 with
    | None -> None
    | Some root ->
        Some
          (lighten_agents params ~bandwidth ~target
             (Tree.normalize (tree_of_ag root)))
  end

let plan params ~platform ~wapp ~demand =
  let n = Platform.size platform in
  if n < 2 then Error "heuristic: need at least two nodes (one agent, one server)"
  else if wapp <= 0.0 || not (Float.is_finite wapp) then
    Error "heuristic: wapp must be positive and finite"
  else
    match Link.uniform_bandwidth (Platform.link platform) with
    | None ->
        Error "heuristic: the model requires homogeneous connectivity (a single B)"
    | Some bandwidth ->
        let sorted =
          Array.of_list
            (Sched_power.sort_nodes params ~bandwidth (Platform.nodes platform))
        in
        let probes = ref [] in
        let candidates = ref [] in
        let try_target target =
          match build params ~bandwidth ~wapp ~target sorted with
          | None ->
              probes :=
                { target; feasible = false; achieved_rho = 0.0; nodes_used = 0 }
                :: !probes;
              false
          | Some tree ->
              let rho = Evaluate.rho params ~bandwidth ~wapp tree in
              let used = Tree.size tree in
              probes :=
                { target; feasible = true; achieved_rho = rho; nodes_used = used }
                :: !probes;
              candidates := (tree, rho, used) :: !candidates;
              true
        in
        (* Upper bound on any achievable rho: the strongest agent with a
           single child, the service power of everything else, and the
           fastest possible server prediction rate. *)
        let rest = List.tl (Array.to_list sorted) in
        let hi_sched = Sched_power.agent params ~bandwidth ~node:sorted.(0) ~children:1 in
        let hi_service = Service_power.of_servers params ~bandwidth ~wapp rest in
        let hi_predict =
          List.fold_left
            (fun acc node -> Float.max acc (Sched_power.server params ~bandwidth ~node))
            0.0 rest
        in
        let hi = Float.min hi_sched (Float.min hi_service hi_predict) in
        let search_hi = Demand.min_target demand hi in
        (* Bisection for the largest feasible target; feasibility is
           monotone non-increasing in the target. *)
        if not (try_target search_hi) then begin
          let lo = ref 0.0 and high = ref search_hi in
          let iterations = 64 in
          for _ = 1 to iterations do
            if !high -. !lo > 1e-9 *. Float.max 1.0 search_hi then begin
              let mid = 0.5 *. (!lo +. !high) in
              if try_target mid then lo := mid else high := mid
            end
          done;
          (* Make sure at least the degenerate plan exists. *)
          if !candidates = [] then ignore (try_target (0.5 *. !lo))
        end;
        if !candidates = [] then
          (* Fall back to one agent and one server, always feasible. *)
          ignore
            (try_target
               (0.9
               *. Float.min
                    (Sched_power.agent params ~bandwidth ~node:sorted.(0) ~children:1)
                    (Service_power.of_servers params ~bandwidth ~wapp [ sorted.(1) ])));
        match !candidates with
        | [] -> Error "heuristic: could not build any feasible hierarchy"
        | cands ->
            let demand_rate =
              match demand with Demand.Unbounded -> None | Demand.Rate r -> Some r
            in
            let meeting =
              match demand_rate with
              | None -> []
              | Some r -> List.filter (fun (_, rho, _) -> rho >= r *. (1.0 -. 1e-9)) cands
            in
            let pick_max_rho l =
              List.fold_left
                (fun best ((_, rho, used) as c) ->
                  match best with
                  | None -> Some c
                  | Some (_, brho, bused) ->
                      if rho > brho || (rho = brho && used < bused) then Some c else best)
                None l
            in
            let pick_min_used l =
              List.fold_left
                (fun best ((_, rho, used) as c) ->
                  match best with
                  | None -> Some c
                  | Some (_, brho, bused) ->
                      if used < bused || (used = bused && rho > brho) then Some c
                      else best)
                None l
            in
            let chosen, demand_met =
              match meeting with
              | [] -> (pick_max_rho cands, false)
              | _ :: _ -> (pick_min_used meeting, true)
            in
            (match chosen with
            | None -> Error "heuristic: empty candidate set"
            | Some (tree, rho, _) ->
                Ok { tree; predicted_rho = rho; probes = List.rev !probes; demand_met })
