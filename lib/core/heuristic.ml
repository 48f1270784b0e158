open Adept_platform
open Adept_hierarchy
module Params = Adept_model.Params
module Demand = Adept_model.Demand

(* This module is the pooled/prefix-sum reimplementation of the seed
   planner kept verbatim in {!Heuristic_reference}.  Every optimization
   below is decision-identical: the same floating-point values reach the
   same comparisons in the same order, so the produced tree and rho are
   bit-identical to the reference (the QCheck equivalence property in
   test_core.ml enforces this).  Only work that cannot change a decision
   is skipped — see DESIGN.md "Planner internals". *)

type probe = { target : float; feasible : bool; achieved_rho : float; nodes_used : int }

type result = {
  tree : Tree.t;
  predicted_rho : float;
  probes : probe list;
  demand_met : bool;
}

(* Working representation during the level-by-level build.  Nodes are
   named by their pool rank (index into the sorted array), so the
   post-build passes can bucket them by rank instead of sorting.
   [nkids] mirrors [List.length kids] so capacity checks are O(1). *)
type ag = { rank : int; cap : int; mutable kids : kid list; mutable nkids : int }
and kid = Kagent of ag | Kserver of int

let rec tree_of_ag sorted a =
  Tree.agent sorted.(a.rank)
    (List.rev_map
       (function Kagent c -> tree_of_ag sorted c | Kserver s -> Tree.server sorted.(s))
       a.kids)

(* The degree each agent of the build keeps through [Tree.normalize],
   written to [degree.(rank)], or -1 where normalize demotes it to a
   server: a non-root agent left with fewer than two children becomes a
   server (a lone child moves up beside it).  Returns how many children
   the agent contributes to its parent once normalized. *)
let rec settle degree ~root a =
  let k =
    List.fold_left
      (fun acc -> function
        | Kserver _ -> acc + 1
        | Kagent c -> acc + settle degree ~root:false c)
      0 a.kids
  in
  if root || k >= 2 then begin
    degree.(a.rank) <- k;
    1
  end
  else begin
    degree.(a.rank) <- -1;
    1 + k
  end

(* Lightening's two orders read off pool ranks: agents power-descending
   (ascending rank) with their degrees, servers power-ascending
   (descending rank).  [degree] covers the build's agent ranks
   [0, agents_end) as {!settle} left it; the ranks [agents_end, used)
   are all servers and weaker than every demoted agent. *)
let roles_by_rank sorted degree ~used =
  let agents_end = Array.length degree in
  let n_agents = Array.fold_left (fun n d -> if d >= 0 then n + 1 else n) 0 degree in
  let agents = Array.make n_agents (sorted.(0), 0) in
  let servers = Array.make (used - n_agents) sorted.(0) in
  let a = ref 0 and s = ref 0 in
  Array.iteri
    (fun r d ->
      if d >= 0 then begin
        agents.(!a) <- (sorted.(r), d);
        incr a
      end)
    degree;
  let add_server r =
    servers.(!s) <- sorted.(r);
    incr s
  in
  for r = used - 1 downto agents_end do add_server r done;
  for r = agents_end - 1 downto 0 do
    if degree.(r) < 0 then add_server r
  done;
  (agents, servers)

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

(* The reference re-sorts both role lists and rewrites the whole tree for
   every swap.  Here the two sorted orders are maintained as arrays
   across swaps and the node substitution is applied once at the end; the
   swap sequence is identical because both comparators are total orders
   (ties break on the node id), the feasibility predicate is monotone
   along the servers' power-ascending order (so a binary search finds the
   same first candidate a linear scan would), and a swap only exchanges
   the occupants of two positions — the degrees attached to agent
   positions never change.

   [agents] (power-descending, with degrees) and [servers]
   (power-ascending) arrive already in the reference's sort orders: the
   caller reads them off pool ranks, and pool order is
   [Node.compare_by_power_desc] order (see {!Node_pool}). *)
let lighten_agents params ~bandwidth ~target ~agents ~servers tree =
  let fuel = Array.length agents + Array.length servers in
  let cmp_agent (a, _) (b, _) = Node.compare_by_power_desc a b in
  let cmp_server a b = Node.compare_by_power_desc b a in
  let feasible_power power degree =
    Adept_model.Throughput.agent_sched params ~bandwidth ~power ~degree
    >= lighten_slack *. target
  in
  (* First server (power-ascending) clearing the scheduling floor at
     [degree]: the predicate is FP-monotone in power, so it holds on a
     suffix and the boundary is binary-searchable. *)
  let first_feasible degree =
    let n = Array.length servers in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible_power (Node.power servers.(mid)) degree then hi := mid
      else lo := mid + 1
    done;
    !lo
  in
  let find_swap () =
    let n_agents = Array.length agents in
    let rec go i =
      if i >= n_agents then None
      else
        let agent, degree = agents.(i) in
        let j = first_feasible degree in
        if j < Array.length servers && Node.power servers.(j) < Node.power agent
        then Some (i, j)
        else go (i + 1)
    in
    go 0
  in
  (* Remove index [i], insert [x] at its sorted position (total order ⇒
     the position is unique, matching a full re-sort). *)
  let replace_sorted arr cmp i x =
    let n = Array.length arr in
    let y = arr.(i) in
    if cmp x y < 0 then begin
      (* move left: shift (pos..i-1) right *)
      let pos = ref 0 in
      while cmp arr.(!pos) x < 0 do incr pos done;
      Array.blit arr !pos arr (!pos + 1) (i - !pos);
      arr.(!pos) <- x
    end
    else begin
      (* move right: shift (i+1..pos-1) left *)
      let pos = ref n in
      while !pos > i + 1 && cmp x arr.(!pos - 1) < 0 do decr pos done;
      Array.blit arr (i + 1) arr i (!pos - 1 - (i + 1) + 1);
      arr.(!pos - 1) <- x
    end
  in
  (* occupant.(original node id at a tree position) = node now holding it *)
  let occupant = Hashtbl.create 16 in
  let position = Hashtbl.create 16 in
  let pos_of node =
    Option.value ~default:(Node.id node) (Hashtbl.find_opt position (Node.id node))
  in
  let rec loop fuel swapped =
    if fuel = 0 then swapped
    else
      match find_swap () with
      | None -> swapped
      | Some (i, j) ->
          let agent, degree = agents.(i) in
          let server = servers.(j) in
          let pa = pos_of agent and ps = pos_of server in
          Hashtbl.replace occupant pa server;
          Hashtbl.replace occupant ps agent;
          Hashtbl.replace position (Node.id server) pa;
          Hashtbl.replace position (Node.id agent) ps;
          replace_sorted agents cmp_agent i (server, degree);
          replace_sorted servers cmp_server j agent;
          loop (fuel - 1) true
  in
  if not (loop fuel false) then tree
  else
    let substitute node =
      match Hashtbl.find_opt occupant (Node.id node) with
      | Some n -> n
      | None -> node
    in
    let rec rewrite = function
      | Tree.Server n -> Tree.server (substitute n)
      | Tree.Agent (n, children) -> Tree.agent (substitute n) (List.map rewrite children)
    in
    rewrite tree

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
      if a.nkids < a.cap then begin
        a.kids <- kid :: a.kids;
        a.nkids <- a.nkids + 1
      end
      else seek (tried + 1)
    in
    seek 0
  in
  List.iter place children

(* Reusable per-plan scratch: the capacity memo is sized by the pool's
   class count once and re-blanked per probe with [Array.fill] — the
   bisection runs ~40 probes per plan, and re-allocating (and collecting)
   a class-indexed array on every probe showed up at 100k nodes. *)
let scratch_for pool = Array.make (max 1 (Node_pool.class_count pool)) (-1)

let build ?scratch params pool ~target =
  let n = Node_pool.size pool in
  let bandwidth = Node_pool.bandwidth pool in
  let sorted = Node_pool.nodes pool in
  (* Capacity depends on a node only through its power: memoize per
     power class (the generators produce a handful of discrete levels,
     so this collapses the per-node capacity scans of the reference). *)
  let cap_cache =
    match scratch with
    | Some arr ->
        Array.fill arr 0 (Array.length arr) (-1);
        arr
    | None -> scratch_for pool
  in
  let cap_at i =
    let c = Node_pool.class_of pool i in
    let cached = cap_cache.(c) in
    if cached >= 0 then cached
    else begin
      let v =
        Sched_power.supported_children params ~bandwidth ~node:sorted.(i)
          ~floor:target ~max_children:(n - 1)
      in
      cap_cache.(c) <- v;
      v
    end
  in
  let usable = Node_pool.usable_until pool ~target in
  let root_cap = cap_at 0 in
  if root_cap < 1 then None
  else if not (Node_pool.feasible pool ~target ~usable) then
    (* No usable prefix from any start index reaches the target service
       power, so every [min_servers] the level build could issue fails
       and the build bottoms out at [None] — skip the whole cascade. *)
    None
  else begin
    let root = { rank = 0; cap = root_cap; kids = []; nkids = 0 } in
    (* [q] is the next unused index in the sorted order. *)
    let rec level frontier q =
      let slots = List.fold_left (fun acc a -> acc + (a.cap - a.nkids)) 0 frontier in
      if slots <= 0 || q >= n then None
      else begin
        (* Scan j = number of frontier slots converted into new agents
           (the shift_nodes move); j = 0 is the all-servers finish.
           [deep] carries the running capacity sum of the j new agents so
           each step is O(1) bookkeeping plus the capped server scan. *)
        let max_j = min slots (n - q) in
        let rec try_j j deep =
          if j > max_j then `No_finish
          else begin
            let last_cap = if j = 0 then max_int else cap_at (q + j - 1) in
            (* A new non-root agent is useless below two children; the
               sorted order makes capacity non-increasing, so stop. *)
            if j > 0 && last_cap < 2 then `No_finish
            else begin
              let deep = if j = 0 then 0 else deep + last_cap in
              let direct = slots - j in
              match
                Node_pool.min_servers pool ~target ~usable ~from:(q + j)
                  ~cap:(direct + deep)
              with
              | Node_pool.Servers count
                when count <= direct + deep && (j = 0 || count >= 2 * j) ->
                  `Finish (j, count)
              | Node_pool.Servers _ | Node_pool.Overflow | Node_pool.Infeasible ->
                  try_j (j + 1) deep
            end
          end
        in
        match try_j 0 0 with
        | `Finish (j, count) ->
            (* The accepted servers are the sorted indices
               [q + j .. q + j + count - 1]; read them off the pool
               directly instead of materializing a list per probe. *)
            let sfrom = q + j in
            let new_agents =
              List.init j (fun i ->
                  { rank = q + i; cap = cap_at (q + i); kids = []; nkids = 0 })
            in
            distribute ~slots:frontier (List.map (fun a -> Kagent a) new_agents);
            (* Guarantee two servers per new agent before balancing the rest. *)
            let rec seed agents idx =
              match agents with
              | [] -> idx
              | a :: more ->
                  if idx + 1 >= sfrom + count then
                    invalid_arg "Heuristic.build: seeding underflow"
                  else begin
                    a.kids <- Kserver (idx + 1) :: Kserver idx :: a.kids;
                    a.nkids <- a.nkids + 2;
                    seed more (idx + 2)
                  end
            in
            let rest_from = seed new_agents sfrom in
            let rest = ref [] in
            for i = sfrom + count - 1 downto rest_from do
              rest := Kserver i :: !rest
            done;
            distribute ~slots:(frontier @ new_agents) !rest;
            Some (sfrom, sfrom + count)
        | `No_finish ->
            (* Commit a full level: every remaining slot becomes an agent,
               then grow the next level (nodes without capacity for two
               children cannot anchor a subtree, and capacity is monotone
               along the sorted order). *)
            let takeable =
              let rec count i acc =
                if acc >= slots || q + i >= n then acc
                else if cap_at (q + i) >= 2 then count (i + 1) (acc + 1)
                else acc
              in
              count 0 0
            in
            if takeable = 0 then None
            else begin
              let new_agents =
                List.init takeable (fun i ->
                    let idx = q + i in
                    { rank = idx; cap = cap_at idx; kids = []; nkids = 0 })
              in
              distribute ~slots:frontier (List.map (fun a -> Kagent a) new_agents);
              level new_agents (q + takeable)
            end
      end
    in
    match level [ root ] 1 with
    | None -> None
    | Some (agents_end, used) ->
        (* The build takes a prefix of the pool: agents are the ranks
           [0, agents_end), servers [agents_end, used).  Normalization
           demotes some agents; reading both roles off the ranks yields
           them already in lightening order, with no sort. *)
        let degree = Array.make agents_end 0 in
        ignore (settle degree ~root:true root);
        let agents, servers = roles_by_rank sorted degree ~used in
        Some
          (lighten_agents params ~bandwidth ~target ~agents ~servers
             (Tree.normalize (tree_of_ag sorted root)))
  end

let build_for_target params ~platform ~wapp ~target =
  match Link.uniform_bandwidth (Platform.link platform) with
  | None -> None
  | Some bandwidth ->
      let pool = Node_pool.create params ~bandwidth ~wapp (Platform.nodes platform) in
      if Node_pool.size pool < 2 then None else build params pool ~target

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
        let pool = Node_pool.create params ~bandwidth ~wapp (Platform.nodes platform) in
        let probes = ref [] in
        let candidates = ref [] in
        let scratch = scratch_for pool in
        let try_target target =
          match build ~scratch params pool ~target with
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
        (* Bisection ceiling: the strongest agent with a single child,
           the service power of everything else, and the fastest
           possible server prediction rate — all O(1) pool lookups,
           bit-identical to the reference's rest-list folds.  It is not
           an upper bound on achievable rho: on 400 random 3-7-node
           platforms the exhaustive optimum exceeded it on 291, and a
           plan of this very heuristic can too (ROADMAP.md, "Bounds that
           hold"). *)
        let hi_sched = Node_pool.hi_sched pool in
        let hi_service = Node_pool.hi_service pool in
        let hi_predict = Node_pool.hi_predict pool in
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
                    (Sched_power.agent params ~bandwidth ~node:(Node_pool.node pool 0)
                       ~children:1)
                    (Service_power.of_servers params ~bandwidth ~wapp
                       [ Node_pool.node pool 1 ])));
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

let plan_tree params ~platform ~wapp ~demand =
  Result.map (fun r -> r.tree) (plan params ~platform ~wapp ~demand)
