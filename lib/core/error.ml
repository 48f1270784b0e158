type t =
  | Invalid_input of string
  | No_survivors
  | Insufficient_survivors of { survivors : int; required : int }
  | No_feasible_hierarchy of { strategy : string; reason : string }
  | Invalid_hierarchy of { context : string; reason : string }

let invalid_input fmt = Printf.ksprintf (fun s -> Invalid_input s) fmt

let no_feasible ~strategy fmt =
  Printf.ksprintf (fun reason -> No_feasible_hierarchy { strategy; reason }) fmt

let invalid_hierarchy ~context fmt =
  Printf.ksprintf (fun reason -> Invalid_hierarchy { context; reason }) fmt

let to_string = function
  | Invalid_input msg -> "invalid input: " ^ msg
  | No_survivors -> "no surviving nodes: every node of the platform is down"
  | Insufficient_survivors { survivors; required } ->
      Printf.sprintf
        "only %d node(s) survive, %d needed (an agent and at least one server)"
        survivors required
  | No_feasible_hierarchy { strategy; reason } ->
      Printf.sprintf "strategy %s found no feasible hierarchy: %s" strategy reason
  | Invalid_hierarchy { context; reason } ->
      Printf.sprintf "%s produced an invalid hierarchy: %s" context reason
