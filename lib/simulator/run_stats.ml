open Adept_platform
module Ring = Adept_obs.Ring
module Histogram = Adept_obs.Histogram

type t = {
  mutable issued : int;
  ring : Ring.t; (* completion time -> response time *)
  responses : Histogram.t;
  mutable completed : int;
  mutable lost : int;
  mutable response_sum : float;
  per_server : (Node.id, int) Hashtbl.t;
  mutable degraded_seconds : float;
  mutable migration_lost : int;
  mutable replans : int;
}

let create ?(retention = infinity) () =
  {
    issued = 0;
    ring = Ring.create ~retention ();
    responses = Histogram.create ();
    completed = 0;
    lost = 0;
    response_sum = 0.0;
    per_server = Hashtbl.create 64;
    degraded_seconds = 0.0;
    migration_lost = 0;
    replans = 0;
  }

let record_issue t ~time:_ = t.issued <- t.issued + 1

let record_lost t ~time:_ = t.lost <- t.lost + 1

let record_completion t ~issued_at ~time ~server =
  let response = time -. issued_at in
  Ring.push t.ring ~time response;
  Histogram.record t.responses response;
  t.response_sum <- t.response_sum +. response;
  t.completed <- t.completed + 1;
  Hashtbl.replace t.per_server server
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.per_server server))

let record_degraded t ~seconds =
  if seconds > 0.0 then t.degraded_seconds <- t.degraded_seconds +. seconds

let record_migration_lost t = t.migration_lost <- t.migration_lost + 1

let record_replan t = t.replans <- t.replans + 1

let issued t = t.issued
let completed t = t.completed
let lost t = t.lost
let degraded_seconds t = t.degraded_seconds
let migration_lost t = t.migration_lost

let completions_in t ~t0 ~t1 = Ring.count_in t.ring ~t0 ~t1

let throughput t ~t0 ~t1 =
  if t1 <= t0 then invalid_arg "Run_stats.throughput: empty window";
  float_of_int (completions_in t ~t0 ~t1) /. (t1 -. t0)

let per_server t =
  Hashtbl.fold (fun id count acc -> (id, count) :: acc) t.per_server []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let mean_response_time t =
  if t.completed = 0 then None else Some (t.response_sum /. float_of_int t.completed)

let response_percentile t p =
  Histogram.quantile (Histogram.snapshot t.responses) p

let response_snapshot t = Histogram.snapshot t.responses

let retained_completions t = Ring.length t.ring
