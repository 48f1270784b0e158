(* Sharded planning: shard-and-arbitrate with exact sequential replay.

   Splitting the paper's heuristic across domains is delicate because
   its bisection is a strictly sequential decision chain — every probe's
   target depends on every earlier outcome, and the acceptance criterion
   for this subsystem is a plan {e bit-identical} to the single-domain
   one (float non-associativity rules out merging partial sums, and any
   change in probe order changes tie-breaks).  The scheme:

   {b Phase 1 — shard hints.}  The node pool (the planner's
   scheduling-power order) is partitioned round-robin into per-domain
   shards; each worker runs the full heuristic on its shard as an
   independent sub-platform.  Round-robin keeps every shard's power
   profile representative — a contiguous split would give one shard all
   the strong nodes and starve the rest.

   {b Phase 2 — merge at root.}  Shard candidates are merged into one
   full-platform hierarchy: the shard holding the globally strongest
   node contributes the root, the other shards' trees attach under it as
   subtrees.  The best Eq. 16 throughput among the shard candidates and
   the merged tree becomes the {e hint} — a cheap, parallel estimate of
   what the full platform can achieve.

   {b Phase 3 — exact replay.}  The real [Heuristic.plan] driver runs
   with its builder swapped for a memo ({!Adept.Planner.run_with_probe}):
   the bisection trajectory is simulated ahead of time with the hint as
   a branch predictor (predict a target feasible iff it is at or below
   the hint), every predicted probe is submitted to the worker domains
   at once, and the driver then replays sequentially, awaiting memoized
   builds.  Predictions only choose which probes to {e precompute};
   actual build outcomes drive the replay, so a misprediction costs one
   inline build and wastes the speculated tail — never correctness.  The
   result is bit-identical to the sequential plan for any shard count,
   which the QCheck equivalence property pins. *)

open Adept_platform
open Adept_hierarchy
module Demand = Adept_model.Demand

type diag = {
  shards_used : int;
  hint : float;  (** best shard/merged candidate rho; 0 if none *)
  speculated : int;  (** probes precomputed from the predicted trajectory *)
  inline_probes : int;  (** replay probes the memo missed (mispredictions) *)
}

(* Renumber a node subset into a dense sub-platform (the same idiom as
   [Planner.replan]'s survivor platform); [retranslate] maps a planned
   tree back onto the original node ids. *)
let sub_platform ~link members =
  let mapping = Array.of_list members in
  let renumbered =
    List.mapi
      (fun i n ->
        Node.make ~id:i ~name:(Node.name n) ~power:(Node.power n)
          ~cluster:(Node.cluster n) ())
      members
  in
  (Platform.create ~link renumbered, mapping)

let rec retranslate mapping = function
  | Tree.Server n -> Tree.server mapping.(Node.id n)
  | Tree.Agent (n, children) ->
      Tree.agent mapping.(Node.id n) (List.map (retranslate mapping) children)

(* Phase 1+2: plan every shard in parallel, merge at the root, return
   the hint.  Shard 0 holds the globally strongest node (round-robin
   over the sorted order), so its candidate contributes the merged
   root. *)
let shard_hint ?prof pool ~k params npool ~wapp ~demand =
  let sorted = Adept.Node_pool.nodes npool in
  let n = Array.length sorted in
  let buckets = Array.make k [] in
  for i = n - 1 downto 0 do
    buckets.(i mod k) <- sorted.(i) :: buckets.(i mod k)
  done;
  let bandwidth = Adept.Node_pool.bandwidth npool in
  let link = Link.homogeneous ~bandwidth () in
  let futures =
    Array.mapi
      (fun shard members ->
        Domain_pool.submit pool (fun () ->
            Prof.time prof ~stage:"shard" ~shard (fun () ->
                let sub, mapping = sub_platform ~link members in
                match Adept.Heuristic.plan params ~platform:sub ~wapp ~demand with
                | Ok r ->
                    Some
                      ( retranslate mapping r.Adept.Heuristic.tree,
                        r.Adept.Heuristic.predicted_rho )
                | Error _ -> None)))
      buckets
  in
  let candidates =
    Array.to_list (Array.map Domain_pool.await futures) |> List.filter_map Fun.id
  in
  let best_shard_rho =
    List.fold_left (fun acc (_, rho) -> Float.max acc rho) 0.0 candidates
  in
  let merged_rho =
    match candidates with
    | [] | [ _ ] -> 0.0
    | (base, _) :: rest -> (
        match base with
        | Tree.Server _ -> 0.0
        | Tree.Agent (root, kids) -> (
            let merged = Tree.agent root (kids @ List.map (fun (t, _) -> t) rest) in
            match Adept.Evaluate.rho params ~bandwidth ~wapp merged with
            | rho -> rho
            | exception _ -> 0.0))
  in
  Float.max best_shard_rho merged_rho

(* Phase 2.5: simulate the driver's bisection with the hint as branch
   predictor, collecting the targets it would probe.  Mirrors the float
   arithmetic of [Heuristic.plan] exactly — same midpoints, same gap
   test — so a correct prediction stream makes the memo hit on every
   replay probe. *)
let predicted_targets ~search_hi ~hint =
  if hint >= search_hi then [ search_hi ]
  else begin
    let acc = ref [ search_hi ] in
    let lo = ref 0.0 and high = ref search_hi in
    let iterations = 64 in
    for _ = 1 to iterations do
      if !high -. !lo > 1e-9 *. Float.max 1.0 search_hi then begin
        let mid = 0.5 *. (!lo +. !high) in
        acc := mid :: !acc;
        if mid <= hint then lo := mid else high := mid
      end
    done;
    List.rev !acc
  end

let plan ?(shards = 0) ?prof ~pool params ~platform ~wapp ~demand =
  let shards = if shards <= 0 then Domain_pool.size pool else shards in
  (* Every shard keeps at least two nodes (an agent and a server). *)
  let k = max 1 (min shards (Platform.size platform / 2)) in
  let sequential () =
    (* No hint to predict with: speculating would queue the whole
       predicted trajectory and use about two of its probes, leaving the
       rest as work ahead of the next request.  The bisection runs
       every probe itself.  Heterogeneous connectivity lands here too, and
       gets the sequential planner's usual typed error. *)
    let result =
      Prof.time prof ~stage:"replay" (fun () ->
          Adept.Planner.run Adept.Planner.Heuristic params ~platform ~wapp ~demand)
    in
    let inline_probes =
      match result with Ok p -> p.Adept.Planner.evaluations | Error _ -> 0
    in
    (result, { shards_used = 1; hint = 0.0; speculated = 0; inline_probes })
  in
  if k < 2 then sequential ()
  else
    match Adept.Heuristic.pool_of params ~platform ~wapp with
    | None -> sequential ()
    | Some npool ->
        let hint = shard_hint ?prof pool ~k params npool ~wapp ~demand in
        let hi =
          Float.min
            (Adept.Node_pool.hi_sched npool)
            (Float.min
               (Adept.Node_pool.hi_service npool)
               (Adept.Node_pool.hi_predict npool))
        in
        let search_hi = Demand.min_target demand hi in
        let targets = predicted_targets ~search_hi ~hint in
        let memo = Hashtbl.create 128 in
        List.iter
          (fun target ->
            if not (Hashtbl.mem memo target) then
              Hashtbl.replace memo target
                (Domain_pool.submit pool (fun () ->
                     Adept.Heuristic.probe params npool ~target)))
          targets;
        let inline_probes = ref 0 in
        let probe ~target =
          match Hashtbl.find_opt memo target with
          | Some fut -> Domain_pool.await fut
          | None ->
              incr inline_probes;
              Adept.Heuristic.probe params npool ~target
        in
        let result =
          Prof.time prof ~stage:"replay" (fun () ->
              Adept.Planner.run_with_probe probe params ~platform ~wapp ~demand)
        in
        ( result,
          {
            shards_used = k;
            hint;
            speculated = Hashtbl.length memo;
            inline_probes = !inline_probes;
          } )
