open Adept_platform

type t = bool array array

let of_tree ~n tree =
  let m = Array.make_matrix n n false in
  let check_id id =
    if id < 0 || id >= n then
      invalid_arg (Printf.sprintf "Adjacency.of_tree: node id %d outside 0..%d" id (n - 1))
  in
  let rec go = function
    | Tree.Server node -> check_id (Node.id node)
    | Tree.Agent (node, children) ->
        let p = Node.id node in
        check_id p;
        List.iter
          (fun child ->
            let c = Node.id (Tree.root_node child) in
            check_id c;
            m.(p).(c) <- true;
            go child)
          children
  in
  go tree;
  m

let parents m =
  let n = Array.length m in
  let parent = Array.make n None in
  for p = 0 to n - 1 do
    for c = 0 to n - 1 do
      if m.(p).(c) then begin
        (match parent.(c) with
        | Some other when other <> p ->
            invalid_arg
              (Printf.sprintf "Adjacency.parents: node %d has parents %d and %d" c other p)
        | Some _ | None -> ());
        parent.(c) <- Some p
      end
    done
  done;
  parent

let used m =
  let n = Array.length m in
  let u = Array.make n false in
  for p = 0 to n - 1 do
    for c = 0 to n - 1 do
      if m.(p).(c) then begin
        u.(p) <- true;
        u.(c) <- true
      end
    done
  done;
  u

let edge_count m =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row)
    0 m

let to_tree platform m =
  let n = Array.length m in
  if n <> Platform.size platform then Error "matrix size differs from platform size"
  else
    match parents m with
    | exception Invalid_argument msg -> Error msg
    | parent -> (
        let u = used m in
        let roots = ref [] in
        for id = 0 to n - 1 do
          if u.(id) && parent.(id) = None then roots := id :: !roots
        done;
        match !roots with
        | [] -> Error "hierarchy has no root (empty matrix or cycle)"
        | _ :: _ :: _ ->
            Error
              (Printf.sprintf "hierarchy has %d roots; expected one" (List.length !roots))
        | [ root ] ->
            let children_of p =
              let cs = ref [] in
              for c = n - 1 downto 0 do
                if m.(p).(c) then cs := c :: !cs
              done;
              !cs
            in
            let rec build visiting id =
              if List.mem id visiting then Error "cycle detected"
              else
                match children_of id with
                | [] -> Ok (Tree.server (Platform.node platform id))
                | children ->
                    let rec build_all acc = function
                      | [] -> Ok (List.rev acc)
                      | c :: rest -> (
                          match build (id :: visiting) c with
                          | Ok t -> build_all (t :: acc) rest
                          | Error _ as e -> e)
                    in
                    Result.map
                      (fun children -> Tree.agent (Platform.node platform id) children)
                      (build_all [] children)
            in
            build [] root)
