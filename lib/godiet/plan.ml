open Adept_hierarchy

type element_kind = Master_agent | Agent | Server

type element = {
  kind : element_kind;
  element_name : string;
  host : Adept_platform.Node.t;
  parent_name : string option;
}

type t = { tree : Tree.t; elements : element list }

let of_tree tree =
  match Validate.check tree with
  | Error errs ->
      Error
        ("plan: invalid hierarchy: "
        ^ String.concat "; " (List.map Validate.error_to_string errs))
  | Ok () ->
      let next_agent = ref 0 and next_server = ref 0 in
      let rec walk parent_name acc node =
        match node with
        | Tree.Server host ->
            incr next_server;
            let e =
              {
                kind = Server;
                element_name = Printf.sprintf "SeD-%d" !next_server;
                host;
                parent_name;
              }
            in
            e :: acc
        | Tree.Agent (host, children) ->
            let kind, element_name =
              if parent_name = None then (Master_agent, "MA")
              else begin
                incr next_agent;
                (Agent, Printf.sprintf "A-%d" !next_agent)
              end
            in
            let e = { kind; element_name; host; parent_name } in
            List.fold_left (walk (Some element_name)) (e :: acc) children
      in
      let elements = List.rev (walk None [] tree) in
      Ok { tree; elements }

let master t = List.hd t.elements

let agents t = List.filter (fun e -> e.kind <> Server) t.elements

let servers t = List.filter (fun e -> e.kind = Server) t.elements

let find t name = List.find_opt (fun e -> e.element_name = name) t.elements

let launch_order t = t.elements
