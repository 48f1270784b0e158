open Adept_platform

type error =
  | Root_is_server of Node.t
  | Root_has_no_children of Node.t
  | Undersized_agent of Node.t * int
  | Duplicate_node of Node.t
  | Unknown_node of Node.t

let error_to_string = function
  | Root_is_server n -> Format.asprintf "root %a is a server" Node.pp n
  | Root_has_no_children n -> Format.asprintf "root agent %a has no children" Node.pp n
  | Undersized_agent (n, d) ->
      Format.asprintf "non-root agent %a has %d child(ren); needs >= 2" Node.pp n d
  | Duplicate_node n -> Format.asprintf "node %a appears more than once" Node.pp n
  | Unknown_node n -> Format.asprintf "node %a is not on the platform" Node.pp n

let errors ?platform tree =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  (match tree with
  | Tree.Server n -> add (Root_is_server n)
  | Tree.Agent (n, []) -> add (Root_has_no_children n)
  | Tree.Agent (_, _ :: _) -> ());
  let rec structure ~root = function
    | Tree.Server _ -> ()
    | Tree.Agent (n, children) ->
        let d = List.length children in
        if (not root) && d < 2 then add (Undersized_agent (n, d));
        List.iter (structure ~root:false) children
  in
  structure ~root:true tree;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let id = Node.id n in
      if Hashtbl.mem seen id then add (Duplicate_node n) else Hashtbl.add seen id ())
    (Tree.nodes tree);
  (match platform with
  | None -> ()
  | Some p ->
      List.iter
        (fun n ->
          let known =
            Node.id n < Platform.size p
            && Node.id n >= 0
            && Node.equal (Platform.node p (Node.id n)) n
          in
          if not known then add (Unknown_node n))
        (Tree.nodes tree));
  List.rev !errs

let check ?platform tree =
  match errors ?platform tree with [] -> Ok () | errs -> Error errs

let is_valid ?platform tree = errors ?platform tree = []
