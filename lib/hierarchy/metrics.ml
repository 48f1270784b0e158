type t = {
  nodes : int;
  agents : int;
  servers : int;
  depth : int;
  max_degree : int;
  min_agent_degree : int;
  mean_agent_degree : float;
  level_sizes : int list;
}

let level_sizes tree =
  let table = Hashtbl.create 16 in
  let bump level =
    Hashtbl.replace table level (1 + Option.value ~default:0 (Hashtbl.find_opt table level))
  in
  let rec go level = function
    | Tree.Server _ -> bump level
    | Tree.Agent (_, children) ->
        bump level;
        List.iter (go (level + 1)) children
  in
  go 0 tree;
  let max_level = Hashtbl.fold (fun l _ acc -> max l acc) table 0 in
  List.init (max_level + 1) (fun l -> Option.value ~default:0 (Hashtbl.find_opt table l))

let of_tree tree =
  let degrees = List.map snd (Tree.agents_with_degree tree) in
  let agents = List.length degrees in
  let max_degree = List.fold_left max 0 degrees in
  let min_agent_degree = List.fold_left min max_int degrees in
  let min_agent_degree = if agents = 0 then 0 else min_agent_degree in
  let mean_agent_degree =
    if agents = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 degrees) /. float_of_int agents
  in
  {
    nodes = Tree.size tree;
    agents;
    servers = Tree.server_count tree;
    depth = Tree.depth tree;
    max_degree;
    min_agent_degree;
    mean_agent_degree;
    level_sizes = level_sizes tree;
  }

let degree_histogram tree =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (_, d) ->
      Hashtbl.replace table d (1 + Option.value ~default:0 (Hashtbl.find_opt table d)))
    (Tree.agents_with_degree tree);
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let describe tree =
  let m = of_tree tree in
  if m.agents = 0 then Printf.sprintf "%d nodes: single server" m.nodes
  else
    Printf.sprintf "%d nodes: %d agent(s) (depth %d, degrees %d..%d), %d server(s)" m.nodes
      m.agents m.depth m.min_agent_degree m.max_degree m.servers
