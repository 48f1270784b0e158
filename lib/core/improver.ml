open Adept_platform
open Adept_hierarchy
module Throughput = Adept_model.Throughput

type bottleneck =
  | Agent_bottleneck of Node.id
  | Server_prediction_bottleneck of Node.id
  | Service_bottleneck

type action =
  | Added_server of Node.id * Node.id
  | Split_agent of Node.id * Node.id
  | Removed_server of Node.id

type step = {
  bottleneck : bottleneck;
  action : action;
  rho_before : float;
  rho_after : float;
}

type result = {
  tree : Tree.t;
  predicted_rho : float;
  steps : step list;
  converged : bool;
}

let unused_strongest platform tree =
  let used = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace used (Node.id n) ()) (Tree.nodes tree);
  List.filter
    (fun n -> not (Hashtbl.mem used (Node.id n)))
    (Platform.sorted_by_power_desc platform)

(* The minimum term of Eq. 16, identified rather than just evaluated. *)
let find_bottleneck params ~bandwidth ~wapp tree =
  let agent_terms =
    List.map
      (fun (node, degree) ->
        ( Node.id node,
          Throughput.agent_sched params ~bandwidth ~power:(Node.power node) ~degree ))
      (Tree.agents_with_degree tree)
  in
  let server_terms =
    List.map
      (fun node ->
        (Node.id node, Throughput.server_sched params ~bandwidth ~power:(Node.power node)))
      (Tree.servers tree)
  in
  let service =
    Service_power.of_servers params ~bandwidth ~wapp (Tree.servers tree)
  in
  let min_of terms =
    List.fold_left
      (fun acc (id, v) ->
        match acc with Some (_, bv) when bv <= v -> acc | _ -> Some (id, v))
      None terms
  in
  let agent_min = min_of agent_terms and server_min = min_of server_terms in
  match (agent_min, server_min) with
  | Some (aid, av), Some (sid, sv) ->
      if service <= av && service <= sv then Service_bottleneck
      else if av <= sv then Agent_bottleneck aid
      else Server_prediction_bottleneck sid
  | _ -> Service_bottleneck

let rec add_server_under tree ~agent_id ~server =
  match tree with
  | Tree.Server _ -> tree
  | Tree.Agent (n, children) ->
      if Node.id n = agent_id then Tree.agent n (children @ [ Tree.server server ])
      else
        Tree.agent n (List.map (fun c -> add_server_under c ~agent_id ~server) children)

(* Move the tail half (at least two) of [agent_id]'s children under a new
   sibling agent; for the root, the new agent becomes one of its children. *)
let split tree ~agent_id ~new_agent =
  let split_children children =
    let d = List.length children in
    let moved_count = max 2 (d / 2) in
    if d < 2 || moved_count >= d + 1 then None
    else begin
      let kept_count = d - moved_count in
      let kept = List.filteri (fun i _ -> i < kept_count) children in
      let moved = List.filteri (fun i _ -> i >= kept_count) children in
      Some (kept, moved)
    end
  in
  match tree with
  | Tree.Agent (root, children) when Node.id root = agent_id -> (
      (* root split: new agent becomes a child of the root *)
      match split_children children with
      | Some (kept, moved) when List.length moved >= 2 ->
          Some (Tree.agent root (kept @ [ Tree.agent new_agent moved ]))
      | Some _ | None -> None)
  | _ ->
      let rec go tree =
        match tree with
        | Tree.Server _ -> (tree, false)
        | Tree.Agent (p, children) ->
            let target =
              List.exists
                (fun c ->
                  match c with
                  | Tree.Agent (n, _) -> Node.id n = agent_id
                  | Tree.Server _ -> false)
                children
            in
            if not target then begin
              let rewritten = List.map go children in
              (Tree.agent p (List.map fst rewritten), List.exists snd rewritten)
            end
            else begin
              let rewritten =
                List.concat_map
                  (fun c ->
                    match c with
                    | Tree.Agent (n, grandchildren) when Node.id n = agent_id -> (
                        match split_children grandchildren with
                        | Some (kept, moved)
                          when List.length kept >= 2 && List.length moved >= 2 ->
                            [ Tree.agent n kept; Tree.agent new_agent moved ]
                        | Some _ | None -> [ c ])
                    | c -> [ c ])
                  children
              in
              let changed = List.length rewritten > List.length children in
              (Tree.agent p rewritten, changed)
            end
      in
      let tree', changed = go tree in
      if changed then Some tree' else None

let remove_server tree ~server_id =
  let rec go tree =
    match tree with
    | Tree.Server _ -> tree
    | Tree.Agent (n, children) ->
        let children =
          List.filter
            (fun c ->
              match c with
              | Tree.Server s -> Node.id s <> server_id
              | Tree.Agent _ -> true)
            children
        in
        Tree.agent n (List.map go children)
  in
  let tree' = go tree in
  if Tree.size tree' < Tree.size tree && Validate.is_valid tree' then Some tree'
  else None

let improve ?max_iterations params ~platform ~wapp tree =
  match (Validate.check ~platform tree, Link.uniform_bandwidth (Platform.link platform)) with
  | Error errs, _ ->
      Error
        ("improver: invalid input deployment: "
        ^ String.concat "; " (List.map Validate.error_to_string errs))
  | Ok (), None ->
      Error "improver: the model requires homogeneous connectivity (a single B)"
  | Ok (), Some bandwidth ->
      let limit = Option.value ~default:(Platform.size platform) max_iterations in
      let rho tree = Evaluate.rho params ~bandwidth ~wapp tree in
      let rec climb tree steps iterations =
        if iterations >= limit then
          { tree; predicted_rho = rho tree; steps = List.rev steps; converged = false }
        else begin
          let rho_before = rho tree in
          let bottleneck = find_bottleneck params ~bandwidth ~wapp tree in
          let candidate =
            match bottleneck with
            | Service_bottleneck -> (
                match unused_strongest platform tree with
                | [] -> None
                | server :: _ ->
                    (* host under the agent with the most Eq. 14 slack *)
                    let best_agent =
                      List.fold_left
                        (fun acc (node, degree) ->
                          let slack =
                            Throughput.agent_sched params ~bandwidth
                              ~power:(Node.power node) ~degree:(degree + 1)
                          in
                          match acc with
                          | Some (_, best) when best >= slack -> acc
                          | Some _ | None -> Some (Node.id node, slack))
                        None
                        (Tree.agents_with_degree tree)
                    in
                    Option.map
                      (fun (agent_id, _) ->
                        ( add_server_under tree ~agent_id ~server,
                          Added_server (Node.id server, agent_id) ))
                      best_agent)
            | Agent_bottleneck agent_id -> (
                match unused_strongest platform tree with
                | [] -> None
                | new_agent :: _ ->
                    Option.map
                      (fun tree' -> (tree', Split_agent (agent_id, Node.id new_agent)))
                      (split tree ~agent_id ~new_agent))
            | Server_prediction_bottleneck server_id ->
                Option.map
                  (fun tree' -> (tree', Removed_server server_id))
                  (remove_server tree ~server_id)
          in
          match candidate with
          | None ->
              { tree; predicted_rho = rho_before; steps = List.rev steps; converged = true }
          | Some (tree', action) ->
              let rho_after = rho tree' in
              if rho_after > rho_before *. (1.0 +. 1e-12) && Validate.is_valid tree'
              then
                climb tree'
                  ({ bottleneck; action; rho_before; rho_after } :: steps)
                  (iterations + 1)
              else
                {
                  tree;
                  predicted_rho = rho_before;
                  steps = List.rev steps;
                  converged = true;
                }
        end
      in
      Ok (climb tree [] 0)
