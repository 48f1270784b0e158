open Adept_hierarchy
module Rng = Adept_util.Rng

let star = function
  | [] | [ _ ] -> Error "star: need at least two nodes"
  | agent :: servers -> Ok (Tree.star agent servers)

let balanced ~agents nodes =
  let n = List.length nodes in
  if agents < 1 then Error "balanced: need at least one middle agent"
  else if n < 1 + agents + (2 * agents) then
    Error
      (Printf.sprintf "balanced: %d nodes cannot host 1 + %d agents with >= 2 servers each"
         n agents)
  else
    match nodes with
    | [] -> Error "balanced: empty node list"
    | top :: rest ->
        let middle = Array.of_list (List.filteri (fun i _ -> i < agents) rest) in
        let servers = List.filteri (fun i _ -> i >= agents) rest in
        let buckets = Array.make agents [] in
        List.iteri (fun i s -> buckets.(i mod agents) <- s :: buckets.(i mod agents)) servers;
        let children =
          Array.to_list
            (Array.mapi (fun i a -> Tree.star a (List.rev buckets.(i))) middle)
        in
        Ok (Tree.agent top children)

let dary ~degree nodes =
  let n = List.length nodes in
  if degree < 1 then Error "dary: degree must be >= 1"
  else if n < 2 then Error "dary: need at least two nodes"
  else begin
    let arr = Array.of_list nodes in
    (* Heap-style indexing: children of position i are i*d+1 .. i*d+d. *)
    let rec build i =
      let first = (i * degree) + 1 in
      if first >= n then Tree.server arr.(i)
      else
        let last = min (first + degree - 1) (n - 1) in
        let children = List.init (last - first + 1) (fun k -> build (first + k)) in
        Tree.agent arr.(i) children
    in
    (* Frontier rounding can leave a non-root agent with a single child;
       Tree.normalize demotes it and splices the child upward. *)
    Ok (Tree.normalize (build 0))
  end

(* Random partition of [items] into groups of size 1 (future server) or
   >= 3 (future agent subtree), with at least [min_groups] groups. *)
let rec random_partition rng ~min_groups items =
  let m = List.length items in
  if m < min_groups then None
  else if m = 0 then Some []
  else
    let take k =
      let rec split acc k = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> split (x :: acc) (k - 1) rest
      in
      split [] k items
    in
    let groups_needed_after = max 0 (min_groups - 1) in
    let max_take =
      (* leave enough items for the remaining mandatory groups *)
      m - groups_needed_after
    in
    let size =
      if max_take < 3 || Rng.bool rng then 1
      else if Rng.bool rng then 1
      else Rng.int_in rng 3 max_take
    in
    let group, rest = take size in
    match random_partition rng ~min_groups:groups_needed_after rest with
    | Some groups -> Some (group :: groups)
    | None -> None

let rec random_subtree rng = function
  | [] -> invalid_arg "random_subtree: empty group"
  | [ node ] -> Tree.server node
  | node :: rest -> (
      match random_partition rng ~min_groups:2 rest with
      | Some groups -> Tree.agent node (List.map (random_subtree rng) groups)
      | None ->
          (* rest has fewer than 2 items; fall back to a flat star *)
          Tree.star node rest)

let random ~rng nodes =
  let n = List.length nodes in
  if n < 2 then Error "random: need at least two nodes"
  else begin
    let arr = Array.of_list nodes in
    Rng.shuffle rng arr;
    let used = Rng.int_in rng 2 n in
    match Array.to_list (Array.sub arr 0 used) with
    | [] | [ _ ] -> Error "random: internal error"
    | root :: rest -> (
        match random_partition rng ~min_groups:1 rest with
        | Some groups -> Ok (Tree.agent root (List.map (random_subtree rng) groups))
        | None -> Ok (Tree.star root rest))
  end
