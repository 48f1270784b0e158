type message_kind = Sched_request | Sched_reply | Service_request | Service_reply

type role = Agent_end | Server_end | Client_end

let kind_index = function
  | Sched_request -> 0
  | Sched_reply -> 1
  | Service_request -> 2
  | Service_reply -> 3

let role_index = function Agent_end -> 0 | Server_end -> 1 | Client_end -> 2

let kind_name = function
  | Sched_request -> "sched-request"
  | Sched_reply -> "sched-reply"
  | Service_request -> "service-request"
  | Service_reply -> "service-reply"

let role_name = function
  | Agent_end -> "agent"
  | Server_end -> "server"
  | Client_end -> "client"

type failure =
  | Node_crash of int
  | Node_recover of int
  | Message_lost
  | Request_timeout
  | Request_abandoned
  | Child_pruned of int * int
  | Child_rejoined of int * int
  | Replan_triggered
  | Replan_enacted of int list
  | Replan_suppressed of string

let failure_name = function
  | Node_crash _ -> "node-crash"
  | Node_recover _ -> "node-recover"
  | Message_lost -> "message-lost"
  | Request_timeout -> "request-timeout"
  | Request_abandoned -> "request-abandoned"
  | Child_pruned _ -> "child-pruned"
  | Child_rejoined _ -> "child-rejoined"
  | Replan_triggered -> "replan-triggered"
  | Replan_enacted _ -> "replan-enacted"
  | Replan_suppressed _ -> "replan-suppressed"

type t = {
  enabled : bool;
  tracer : Adept_obs.Tracer.t option;
  counts : int array;  (* kind * role *)
  sizes : float array;
  mutable request_computes : float list;
  mutable reply_samples : (int * float) list;
  mutable predictions : float list;
  mutable failures : (float * failure) list;
  mutable recovery_latencies : float list;
}

let make ?tracer enabled =
  {
    enabled;
    tracer;
    counts = Array.make 12 0;
    sizes = Array.make 12 0.0;
    request_computes = [];
    reply_samples = [];
    predictions = [];
    failures = [];
    recovery_latencies = [];
  }

let create ?tracer () = make ?tracer true

let disabled = make false

let is_enabled t = t.enabled

let tracer t = t.tracer

let cell ~kind ~role = (kind_index kind * 3) + role_index role

let record_message t ~kind ~role ~size =
  if t.enabled then begin
    let i = cell ~kind ~role in
    t.counts.(i) <- t.counts.(i) + 1;
    t.sizes.(i) <- t.sizes.(i) +. size
  end

let record_agent_request_compute t ~seconds =
  if t.enabled then t.request_computes <- seconds :: t.request_computes

let record_agent_reply_compute t ~degree ~seconds =
  if t.enabled then t.reply_samples <- (degree, seconds) :: t.reply_samples

let record_server_prediction t ~seconds =
  if t.enabled then t.predictions <- seconds :: t.predictions

let failure_labels = function
  | Node_crash id | Node_recover id -> [ ("node", string_of_int id) ]
  | Child_pruned (agent, child) | Child_rejoined (agent, child) ->
      [ ("agent", string_of_int agent); ("child", string_of_int child) ]
  | Replan_enacted failed ->
      [ ("failed", String.concat " " (List.map string_of_int failed)) ]
  | Replan_suppressed reason -> [ ("reason", reason) ]
  | Message_lost | Request_timeout | Request_abandoned | Replan_triggered -> []

let record_failure t ~time failure =
  if t.enabled then begin
    t.failures <- (time, failure) :: t.failures;
    match t.tracer with
    | Some tracer ->
        Adept_obs.Tracer.event tracer ~at:time
          ~labels:(Adept_obs.Label.v (failure_labels failure))
          (failure_name failure)
    | None -> ()
  end

let record_recovery_latency t ~seconds =
  if t.enabled then t.recovery_latencies <- seconds :: t.recovery_latencies

let message_count t kind role = t.counts.(cell ~kind ~role)

let mean_message_size t kind role =
  let i = cell ~kind ~role in
  if t.counts.(i) = 0 then None else Some (t.sizes.(i) /. float_of_int t.counts.(i))

let total_mbit t = Array.fold_left ( +. ) 0.0 t.sizes

let agent_request_computes t = Array.of_list (List.rev t.request_computes)

let reply_samples t = Array.of_list (List.rev t.reply_samples)

let server_predictions t = Array.of_list (List.rev t.predictions)

let failures t = List.rev t.failures

let failure_count t = List.length t.failures

let recovery_latencies t = Array.of_list (List.rev t.recovery_latencies)
