open Adept_platform
open Adept_hierarchy
module Demand = Adept_model.Demand

type strategy =
  | Heuristic
  | Star
  | Balanced of int
  | Dary of int
  | Homogeneous_optimal
  | Exhaustive
  | Multi_cluster
  | Improved of strategy

let rec strategy_name = function
  | Heuristic -> "heuristic"
  | Star -> "star"
  | Balanced k -> Printf.sprintf "balanced:%d" k
  | Dary d -> Printf.sprintf "dary:%d" d
  | Homogeneous_optimal -> "homogeneous"
  | Exhaustive -> "exhaustive"
  | Multi_cluster -> "multi-cluster"
  | Improved inner -> "improved:" ^ strategy_name inner

let strip_prefix prefix s =
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    Some (String.sub s plen (String.length s - plen))
  else None

let rec strategy_of_string s =
  let int_suffix prefix s =
    Option.bind (strip_prefix prefix s) int_of_string_opt
  in
  match s with
  | "heuristic" -> Ok Heuristic
  | "star" -> Ok Star
  | "homogeneous" -> Ok Homogeneous_optimal
  | "exhaustive" -> Ok Exhaustive
  | "multi-cluster" -> Ok Multi_cluster
  | s -> (
      match int_suffix "balanced:" s with
      | Some k -> Ok (Balanced k)
      | None -> (
          match int_suffix "dary:" s with
          | Some d -> Ok (Dary d)
          | None -> (
              match strip_prefix "improved:" s with
              | Some inner -> Result.map (fun i -> Improved i) (strategy_of_string inner)
              | None -> Error (Error.invalid_input "unknown strategy %S" s))))

type plan = {
  strategy : strategy;
  tree : Tree.t;
  predicted_rho : float;
  demand_met : bool;
  nodes_used : int;
  nodes_available : int;
  evaluations : int;
}

let ( let* ) = Result.bind

(* The strategy modules still speak [(_, string) result]; this is where
   their prose becomes a typed [Error.t].  Each arm also reports how many
   candidate hierarchies the strategy evaluated, for the observability
   layer. *)
let rec plan_tree strategy params ~platform ~wapp ~demand =
  let nodes = Platform.sorted_by_power_desc platform in
  let typed r =
    Result.map_error
      (fun reason -> Error.no_feasible ~strategy:(strategy_name strategy) "%s" reason)
      r
  in
  match strategy with
  | Heuristic ->
      typed
        (Result.map
           (fun (r : Heuristic.result) -> (r.tree, List.length r.probes))
           (Heuristic.plan params ~platform ~wapp ~demand))
  | Star -> typed (Result.map (fun t -> (t, 1)) (Baselines.star nodes))
  | Balanced k ->
      typed (Result.map (fun t -> (t, 1)) (Baselines.balanced ~agents:k nodes))
  | Dary d -> typed (Result.map (fun t -> (t, 1)) (Baselines.dary ~degree:d nodes))
  | Homogeneous_optimal ->
      typed
        (Result.map
           (fun (r : Homogeneous.result) -> (r.tree, List.length r.per_degree))
           (Homogeneous.plan params ~platform ~wapp ~demand))
  | Exhaustive ->
      typed
        (Result.map
           (fun (tree, _rho) -> (tree, Exhaustive.count (Platform.nodes platform)))
           (Exhaustive.optimal params ~platform ~wapp ()))
  | Multi_cluster ->
      typed
        (Result.map
           (fun (r : Multi_cluster.result) ->
             (r.Multi_cluster.tree, List.length r.Multi_cluster.candidates))
           (Multi_cluster.plan params ~platform ~wapp ~demand))
  | Improved inner ->
      let* start, inner_evaluations = plan_tree inner params ~platform ~wapp ~demand in
      typed
        (Result.map
           (fun (r : Improver.result) ->
             (r.Improver.tree, inner_evaluations + List.length r.Improver.steps))
           (Improver.improve params ~platform ~wapp start))

let validated ~context ~platform tree =
  match Validate.check ~platform tree with
  | Ok () -> Ok ()
  | Error errs ->
      Error
        (Error.invalid_hierarchy ~context "%s"
           (String.concat "; " (List.map Validate.error_to_string errs)))

let finish strategy params ~platform ~demand ~wapp (tree, evaluations) =
  let* () =
    validated ~context:("strategy " ^ strategy_name strategy) ~platform tree
  in
  let predicted_rho = Evaluate.rho_hetero params ~platform ~wapp tree in
  Ok
    {
      strategy;
      tree;
      predicted_rho;
      demand_met = Demand.is_met demand predicted_rho;
      nodes_used = Tree.size tree;
      nodes_available = Platform.size platform;
      evaluations;
    }

let run strategy params ~platform ~wapp ~demand =
  let* pair = plan_tree strategy params ~platform ~wapp ~demand in
  finish strategy params ~platform ~demand ~wapp pair

let run_with_probe probe params ~platform ~wapp ~demand =
  let* pair =
    Result.map_error
      (fun reason -> Error.no_feasible ~strategy:(strategy_name Heuristic) "%s" reason)
      (Result.map
         (fun (r : Heuristic.result) -> (r.tree, List.length r.probes))
         (Heuristic.plan ~probe params ~platform ~wapp ~demand))
  in
  finish Heuristic params ~platform ~demand ~wapp pair

type replan_result = {
  replanned : plan;
  failed : Node.id list;
  survivors : int;
  rho_before : float;
  rho_after : float;
  rho_drop : float;
}

(* Renumber the surviving nodes into a dense 0..n-1 sub-platform, keeping
   names, powers and cluster labels.  The original link structure carries
   over unchanged because bandwidths are keyed on cluster labels, not node
   ids.  Guarded by the survivor-count checks in [replan]: never called
   with fewer than two members ([Platform.create] would raise on zero). *)
let surviving_platform platform ~members =
  let mapping = Array.of_list members in
  let renumbered =
    List.mapi
      (fun i n ->
        Node.make ~id:i ~name:(Node.name n) ~power:(Node.power n)
          ~cluster:(Node.cluster n) ())
      members
  in
  (Platform.create ~link:(Platform.link platform) renumbered, mapping)

let rec retranslate mapping = function
  | Tree.Server n -> Tree.server mapping.(Node.id n)
  | Tree.Agent (n, children) ->
      Tree.agent mapping.(Node.id n) (List.map (retranslate mapping) children)

let replan strategy params ~platform ~wapp ~demand ~failed ?reference () =
  let n = Platform.size platform in
  let* () =
    if failed = [] then Error (Error.invalid_input "replan: no failed nodes given")
    else Ok ()
  in
  let* () =
    match List.find_opt (fun id -> id < 0 || id >= n) failed with
    | Some id ->
        Error (Error.invalid_input "replan: failed node %d is not on the platform" id)
    | None -> Ok ()
  in
  let failed = List.sort_uniq Int.compare failed in
  let* rho_before =
    match reference with
    | Some tree ->
        Result.map
          (fun () -> Evaluate.rho_hetero params ~platform ~wapp tree)
          (validated ~context:"replan reference" ~platform tree)
    | None ->
        Result.map
          (fun p -> p.predicted_rho)
          (run strategy params ~platform ~wapp ~demand)
  in
  let is_failed = Array.make n false in
  List.iter (fun id -> is_failed.(id) <- true) failed;
  let members =
    List.filter (fun nd -> not is_failed.(Node.id nd)) (Platform.nodes platform)
  in
  (* Any hierarchy needs at least an agent and a server; refuse before
     building the sub-platform so these edge cases are typed errors, not
     exceptions from deeper layers. *)
  let* () =
    match List.length members with
    | 0 -> Error Error.No_survivors
    | s when s < 2 -> Error (Error.Insufficient_survivors { survivors = s; required = 2 })
    | _ -> Ok ()
  in
  let sub, mapping = surviving_platform platform ~members in
  let* sub_plan = run strategy params ~platform:sub ~wapp ~demand in
  let tree = retranslate mapping sub_plan.tree in
  let* () = validated ~context:"replan retranslation" ~platform tree in
  let rho_after = Evaluate.rho_hetero params ~platform ~wapp tree in
  Ok
    {
      replanned =
        {
          strategy;
          tree;
          predicted_rho = rho_after;
          demand_met = Demand.is_met demand rho_after;
          nodes_used = Tree.size tree;
          nodes_available = Platform.size sub;
          evaluations = sub_plan.evaluations;
        };
      failed;
      survivors = Platform.size sub;
      rho_before;
      rho_after;
      rho_drop =
        (if rho_before > 0.0 then Float.max 0.0 (1.0 -. (rho_after /. rho_before))
         else 0.0);
    }

type replan_mode = Incremental | Full of string

let replan_mode_name = function Incremental -> "incremental" | Full _ -> "full"
let replan_fallback_reason = function Incremental -> None | Full r -> Some r

(* Remove the failed nodes from a hierarchy, reusing untouched subtrees by
   structural sharing (a branch with no casualties is returned physically
   unchanged).  A dead server just disappears; a dead agent dissolves and
   its strongest surviving child takes its place — an agent child absorbs
   the orphaned siblings, a server child is promoted to an agent over
   them.  Returns [None] when nothing below survives. *)
let rec drop_first_phys x = function
  | [] -> []
  | t :: rest -> if t == x then rest else t :: drop_first_phys x rest

let promote_strongest kids =
  let best =
    List.fold_left
      (fun best t ->
        if Node.compare_by_power_desc (Tree.root_node t) (Tree.root_node best) < 0
        then t
        else best)
      (List.hd kids) (List.tl kids)
  in
  match drop_first_phys best kids with
  | [] -> best
  | rest -> (
      match best with
      | Tree.Agent (n, c) -> Tree.agent n (c @ rest)
      | Tree.Server n -> Tree.agent n rest)

let rec patch_out is_failed tree =
  match tree with
  | Tree.Server n -> if is_failed.(Node.id n) then None else Some tree
  | Tree.Agent (n, children) ->
      let patched = List.filter_map (patch_out is_failed) children in
      if is_failed.(Node.id n) then
        match patched with [] -> None | kids -> Some (promote_strongest kids)
      else if
        List.length patched = List.length children
        && List.for_all2 ( == ) patched children
      then Some tree
      else Some (Tree.agent n patched)

(* Upper bound (Eq. 16) on the throughput any hierarchy over [survivors]
   can reach — the same three-way bound the heuristic bisects under,
   computed on a survivor pool: strongest agent at degree one, service
   power of everything but the strongest node, fastest server prediction
   rate.  Any tree's rho is below it, so a patch within [slack] of it is
   provably within [slack] of whatever a from-scratch replan could do. *)
let survivor_bound params ~bandwidth ~wapp ~demand survivors =
  let pool = Node_pool.create params ~bandwidth ~wapp survivors in
  let hi =
    Float.min (Node_pool.hi_sched pool)
      (Float.min (Node_pool.hi_service pool) (Node_pool.hi_predict pool))
  in
  Demand.min_target demand hi

(* Re-admission: recovered off-tree nodes rejoin the patched hierarchy as
   servers under the least-loaded agent (fewest children, first in
   preorder on ties) — the cheapest structural move that returns their
   compute power to the service side without re-planning.  The graft is
   kept only when it does not lower the patched tree's Eq. 16 rho: on a
   scheduling-bound hierarchy an extra child can cost more than the
   server adds, and then the recovered node is better left for the next
   full replan to place. *)
let graft_recovered params ~platform ~wapp patched nodes =
  List.fold_left
    (fun (tree, rho) node ->
      if Tree.mem tree (Node.id node) then (tree, rho)
      else
        let agents = Tree.agents_with_degree tree in
        let host, _ =
          List.fold_left
            (fun ((_, bd) as best) ((_, d) as cand) ->
              if d < bd then cand else best)
            (List.hd agents) (List.tl agents)
        in
        let rec add = function
          | Tree.Server _ as s -> s
          | Tree.Agent (a, kids) when Node.id a = Node.id host ->
              Tree.agent a (kids @ [ Tree.server node ])
          | Tree.Agent (a, kids) -> Tree.agent a (List.map add kids)
        in
        let grafted = add tree in
        let rho' = Evaluate.rho_hetero params ~platform ~wapp grafted in
        if rho' >= rho then (grafted, rho') else (tree, rho))
    patched nodes

let replan_incremental strategy params ~platform ~wapp ~demand ~failed
    ?(recovered = []) ~previous ?(slack = 0.15) () =
  let n = Platform.size platform in
  let* () =
    if slack < 0.0 || slack >= 1.0 || not (Float.is_finite slack) then
      Error (Error.invalid_input "replan_incremental: slack must be in [0, 1)")
    else Ok ()
  in
  let* () =
    match List.find_opt (fun id -> id < 0 || id >= n) failed with
    | Some id ->
        Error (Error.invalid_input "replan: failed node %d is not on the platform" id)
    | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun id -> id < 0 || id >= n) recovered with
    | Some id ->
        Error
          (Error.invalid_input "replan: recovered node %d is not on the platform" id)
    | None -> Ok ()
  in
  let failed = List.sort_uniq Int.compare failed in
  let recovered = List.sort_uniq Int.compare recovered in
  let* () =
    match List.find_opt (fun id -> List.mem id failed) recovered with
    | Some id ->
        Error
          (Error.invalid_input "replan: node %d is both failed and recovered" id)
    | None -> Ok ()
  in
  let* rho_before =
    Result.map
      (fun () -> Evaluate.rho_hetero params ~platform ~wapp previous)
      (validated ~context:"replan reference" ~platform previous)
  in
  (* Only nodes genuinely absent from the running hierarchy are
     re-admission candidates — a "recovered" id still serving in
     [previous] never left. *)
  let recovered_nodes =
    List.filter_map
      (fun id ->
        if Tree.mem previous id then None else Some (Platform.node platform id))
      recovered
  in
  if failed = [] && recovered_nodes = [] then
    (* Nothing died: the previous hierarchy is returned verbatim
       (physically shared), with zero candidate evaluations. *)
    Ok
      ( {
          replanned =
            {
              strategy;
              tree = previous;
              predicted_rho = rho_before;
              demand_met = Demand.is_met demand rho_before;
              nodes_used = Tree.size previous;
              nodes_available = n;
              evaluations = 0;
            };
          failed = [];
          survivors = n;
          rho_before;
          rho_after = rho_before;
          rho_drop = 0.0;
        },
        Incremental )
  else if failed = [] then begin
    (* Nothing died but nodes recovered: re-admission is a pure
       improvement step — grafts are kept only when they raise rho, so
       no slack gate is needed (there is no loss to bound) and the
       result is always [Incremental].  When every graft would lower
       rho the previous tree comes back physically unchanged. *)
    let tree, rho =
      graft_recovered params ~platform ~wapp (previous, rho_before)
        recovered_nodes
    in
    Ok
      ( {
          replanned =
            {
              strategy;
              tree;
              predicted_rho = rho;
              demand_met = Demand.is_met demand rho;
              nodes_used = Tree.size tree;
              nodes_available = n;
              evaluations = List.length recovered_nodes;
            };
          failed = [];
          survivors = n;
          rho_before;
          rho_after = rho;
          rho_drop = 0.0;
        },
        Incremental )
  end
  else
    let is_failed = Array.make n false in
    List.iter (fun id -> is_failed.(id) <- true) failed;
    let members =
      List.filter (fun nd -> not is_failed.(Node.id nd)) (Platform.nodes platform)
    in
    let* () =
      match List.length members with
      | 0 -> Error Error.No_survivors
      | s when s < 2 ->
          Error (Error.Insufficient_survivors { survivors = s; required = 2 })
      | _ -> Ok ()
    in
    let survivors = List.length members in
    let full reason =
      Result.map
        (fun r -> (r, Full reason))
        (replan strategy params ~platform ~wapp ~demand ~failed ~reference:previous ())
    in
    let accept tree rho_after =
      Ok
        ( {
            replanned =
              {
                strategy;
                tree;
                predicted_rho = rho_after;
                demand_met = Demand.is_met demand rho_after;
                nodes_used = Tree.size tree;
                nodes_available = survivors;
                evaluations = 1 + List.length recovered_nodes;
              };
            failed;
            survivors;
            rho_before;
            rho_after;
            rho_drop =
              (if rho_before > 0.0 then
                 Float.max 0.0 (1.0 -. (rho_after /. rho_before))
               else 0.0);
          },
          Incremental )
    in
    if is_failed.(Node.id (Tree.root_node previous)) then full "root-died"
    else
      match patch_out is_failed previous with
      | None -> full "no-survivors-in-tree"
      | Some patched -> (
          let patched = Tree.normalize patched in
          (* A recovery can rescue a patch the deaths reduced below a
             servable hierarchy: [Agent (a, [])] is the only server-less
             shape normalization leaves (every other childless agent was
             demoted), it has no Eq. 16 rho to compare against, and a
             hierarchy with no servers serves nothing — so the first
             recovered node is grafted unconditionally before the patch
             is judged. *)
          let patched, recovered_nodes =
            match (patched, recovered_nodes) with
            | Tree.Agent (a, []), nd :: rest ->
                (Tree.agent a [ Tree.server nd ], rest)
            | _ -> (patched, recovered_nodes)
          in
          if Tree.size patched < 2 || Validate.check ~platform patched <> Ok ()
          then full "invalid-patch"
          else
            match Link.uniform_bandwidth (Platform.link platform) with
            | None -> full "non-uniform-bandwidth"
            | Some bandwidth ->
                let rho_patched = Evaluate.rho_hetero params ~platform ~wapp patched in
                (* Recovered off-tree nodes rejoin the patch before the
                   slack gate: their service power counts toward the
                   survivor bound (they are in [members]), so letting the
                   patch actually use them is what keeps it competitive
                   with the from-scratch replan the gate prices against. *)
                let patched, rho_patched =
                  graft_recovered params ~platform ~wapp (patched, rho_patched)
                    recovered_nodes
                in
                let bound = survivor_bound params ~bandwidth ~wapp ~demand members in
                if rho_patched >= (1.0 -. slack) *. bound then
                  accept patched rho_patched
                else full "rho-below-bound")

let pp_replan ppf r =
  Format.fprintf ppf
    "%d node(s) down, %d survive: rho %.2f -> %.2f req/s (%.1f%% drop), %s"
    (List.length r.failed) r.survivors r.rho_before r.rho_after
    (100.0 *. r.rho_drop)
    (Metrics.describe r.replanned.tree)

let compare_strategies params ~platform ~wapp ~demand strategies =
  List.map (fun s -> (s, run s params ~platform ~wapp ~demand)) strategies

let pp_plan ppf p =
  Format.fprintf ppf "%s: rho=%.2f req/s, %d/%d nodes, %s" (strategy_name p.strategy)
    p.predicted_rho p.nodes_used p.nodes_available
    (Metrics.describe p.tree)
