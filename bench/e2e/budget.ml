(* The latency budget: where a traced request's client-measured time
   went, stage by stage.

   A request's server spans form one causal chain (frame read -> parse
   -> cache lookup -> [worker spans] -> write).  Walking it from the
   write span back to the frame read gives the stages in order; the
   time between two consecutive stages is an explicit, named gap (queue
   wait, reap wait, ...), never silently folded into a neighbour.  What
   the chain cannot see — socket transit both ways, the client's decode
   and the server's select wake-up — is the unattributed residual.

   The budget describes the median request.  Medians do not add, so
   every row is a mean over the median cohort — the requests between
   the 45th and 55th percentile of client latency — and the residual is
   each cohort request's latency minus its attributed parts, averaged
   the same way.  The rows therefore sum exactly to the cohort's mean
   latency, which lies between the client p45 and p55. *)

module Rt = Adept_obs.Request_trace

let stage_name = function
  | Rt.Frame_read -> "frame_read"
  | Rt.Parse -> "parse"
  | Rt.Cache_lookup -> "cache_lookup"
  | Rt.Shard_plan -> "shard_hint"
  | Rt.Replay -> "replay"
  | Rt.Render_reply -> "render"
  | Rt.Write_reply -> "write"

let worker_stage = function
  | Rt.Shard_plan | Rt.Replay | Rt.Render_reply -> true
  | Rt.Frame_read | Rt.Parse | Rt.Cache_lookup | Rt.Write_reply -> false

(* The gap before [next], named by what the server does in it. *)
let gap_name prev next =
  match (prev, next) with
  | _, Rt.Cache_lookup -> "gap.dispatch"
  | Rt.Cache_lookup, s when worker_stage s -> "gap.queue_wait"
  | Rt.Cache_lookup, Rt.Write_reply -> "gap.inline"
  | Rt.Parse, Rt.Write_reply -> "gap.unstaged"
  | p, Rt.Write_reply when worker_stage p -> "gap.reap_wait"
  | p, s when worker_stage p && worker_stage s -> "gap.worker"
  | _ -> "gap.other"

let stage_of (sp : Rt.span) =
  match sp.Rt.sp_kind with Rt.Stage s -> Some s | _ -> None

(* One request's attributed parts in seconds, in causal order: the
   generator's send lag, then every stage on the critical chain with the
   nonzero gap before it.  [spans] is the request's span array as the
   server recorded it. *)
let decompose ~due ~sent spans =
  let chain =
    Rt.critical_path
      { Rt.tr_id = 0; tr_issued = 0.0; tr_finished = 0.0; tr_spans = spans }
    |> List.filter_map (fun sp -> Option.map (fun s -> (s, sp)) (stage_of sp))
  in
  let rec walk prev acc = function
    | [] -> List.rev acc
    | (s, (sp : Rt.span)) :: rest ->
        let acc =
          match prev with
          | Some (ps, (psp : Rt.span)) when sp.Rt.sp_start <> psp.Rt.sp_stop ->
              (gap_name ps s, sp.Rt.sp_start -. psp.Rt.sp_stop) :: acc
          | _ -> acc
        in
        walk (Some (s, sp)) ((stage_name s, sp.Rt.sp_stop -. sp.Rt.sp_start) :: acc) rest
  in
  ("send_lag", sent -. due) :: walk None [] chain

type row = { name : string; seconds : float }

type t = {
  rows : row list;  (** attributed parts, first-appearance order *)
  unattributed : float;
  total : float;  (** cohort mean latency; rows + unattributed sum to it *)
  p50 : float;  (** the client p50 the cohort is centred on *)
  cohort : int;  (** requests the rows are averaged over *)
}

(* [requests] are (client latency, parts) pairs; at least one. *)
let close requests =
  let sorted = Quantile.sorted_of_list (List.map fst requests) in
  let lo = Quantile.percentile sorted 0.45 and hi = Quantile.percentile sorted 0.55 in
  let cohort = List.filter (fun (l, _) -> l >= lo && l <= hi) requests in
  let n = float_of_int (List.length cohort) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 cohort /. n in
  let order = ref [] and sums = Hashtbl.create 16 in
  List.iter
    (fun (_, parts) ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt sums name with
          | Some s -> Hashtbl.replace sums name (s +. v)
          | None ->
              order := name :: !order;
              Hashtbl.replace sums name v)
        parts)
    cohort;
  let attributed parts = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
  {
    rows = List.rev_map (fun name -> { name; seconds = Hashtbl.find sums name /. n }) !order;
    unattributed = mean (fun (l, parts) -> l -. attributed parts);
    total = mean fst;
    p50 = Quantile.percentile sorted 0.50;
    cohort = List.length cohort;
  }
