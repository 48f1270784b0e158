(* The served heuristic plan: one [Planner.run Heuristic], timed as the
   ["replay"] stage.  See shard.mli for why the module keeps its name. *)

type diag = { speculated : int; inline_probes : int }

let plan ?pool:_ ?prof params ~platform ~wapp ~demand =
  let result =
    Prof.time prof ~stage:"replay" (fun () ->
        Adept.Planner.run Adept.Planner.Heuristic params ~platform ~wapp ~demand)
  in
  let inline_probes =
    match result with Ok p -> p.Adept.Planner.evaluations | Error _ -> 0
  in
  (result, { speculated = 0; inline_probes })
