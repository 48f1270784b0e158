let float_repr v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let family_help (f : Registry.family) =
  if f.help <> "" then f.help else Semconv.help f.name

let kind_of_family (f : Registry.family) =
  match f.series with
  | (_, Registry.Counter _) :: _ -> "counter"
  | (_, Registry.Gauge _) :: _ -> "gauge"
  | (_, Registry.Histogram _) :: _ -> "histogram"
  | [] -> "untyped"

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let with_le labels bound =
  Label.v (("le", float_repr bound) :: (Label.pairs labels : (string * string) list))

let prometheus families =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f : Registry.family) ->
      if f.series <> [] then begin
        let help = family_help f in
        if help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" f.name (escape_help help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" f.name (kind_of_family f));
        List.iter
          (fun (labels, value) ->
            match (value : Registry.value) with
            | Registry.Counter v | Registry.Gauge v ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" f.name (Label.to_prometheus labels)
                     (float_repr v))
            | Registry.Histogram snap ->
                List.iter
                  (fun (bound, cumulative) ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s_bucket%s %d\n" f.name
                         (Label.to_prometheus (with_le labels bound))
                         cumulative))
                  (Histogram.cumulative_buckets snap);
                if Histogram.count snap = 0 then
                  (* an empty histogram still exports its zero count *)
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s 0\n" f.name
                       (Label.to_prometheus (with_le labels infinity)));
                Buffer.add_string buf
                  (Printf.sprintf "%s_sum%s %s\n" f.name
                     (Label.to_prometheus labels)
                     (float_repr (Histogram.sum snap)));
                Buffer.add_string buf
                  (Printf.sprintf "%s_count%s %d\n" f.name
                     (Label.to_prometheus labels) (Histogram.count snap)))
          f.series
      end)
    families;
  Buffer.contents buf

let json_float v =
  if v = infinity || v = neg_infinity || Float.is_nan v then
    Label.json_string (float_repr v)
  else float_repr v

let jsonl families =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f : Registry.family) ->
      List.iter
        (fun (labels, value) ->
          let common kind =
            Printf.sprintf "\"metric\":%s,\"type\":%s,\"labels\":%s"
              (Label.json_string f.name) (Label.json_string kind)
              (Label.to_json labels)
          in
          (match (value : Registry.value) with
          | Registry.Counter v ->
              Buffer.add_string buf
                (Printf.sprintf "{%s,\"value\":%s}" (common "counter")
                   (json_float v))
          | Registry.Gauge v ->
              Buffer.add_string buf
                (Printf.sprintf "{%s,\"value\":%s}" (common "gauge")
                   (json_float v))
          | Registry.Histogram snap ->
              let buckets =
                Histogram.cumulative_buckets snap
                |> List.map (fun (bound, c) ->
                       Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float bound) c)
                |> String.concat ","
              in
              let opt = function Some v -> json_float v | None -> "null" in
              Buffer.add_string buf
                (Printf.sprintf
                   "{%s,\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"buckets\":[%s]}"
                   (common "histogram") (Histogram.count snap)
                   (json_float (Histogram.sum snap))
                   (opt (Histogram.min_recorded snap))
                   (opt (Histogram.max_recorded snap))
                   buckets));
          Buffer.add_char buf '\n')
        f.series)
    families;
  Buffer.contents buf

let csv families =
  let table = ref (Adept_util.Csv.create [ "metric"; "labels"; "stat"; "value" ]) in
  let row metric labels stat value =
    table :=
      Adept_util.Csv.add_row !table
        [ metric; Label.to_string labels; stat; float_repr value ]
  in
  List.iter
    (fun (f : Registry.family) ->
      List.iter
        (fun (labels, value) ->
          match (value : Registry.value) with
          | Registry.Counter v | Registry.Gauge v -> row f.name labels "value" v
          | Registry.Histogram snap ->
              row f.name labels "count" (float_of_int (Histogram.count snap));
              row f.name labels "sum" (Histogram.sum snap);
              let opt stat = function
                | Some v -> row f.name labels stat v
                | None -> ()
              in
              opt "mean" (Histogram.mean snap);
              opt "p50" (Histogram.quantile snap 50.);
              opt "p95" (Histogram.quantile snap 95.);
              opt "p99" (Histogram.quantile snap 99.);
              opt "max" (Histogram.max_recorded snap))
        f.series)
    families;
  !table

(* The line-level emitter is shared between the live path (feeding it
   [Alert.transitions]) and the flight-recorder replay (feeding it
   journalled transition records) so both produce identical bytes. *)
let alert_timeline_entries entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (at, name, severity, state, value) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"at\":%s,\"alert\":%s,\"severity\":%s,\"state\":%s,\"value\":%s}\n"
           (json_float at) (Label.json_string name)
           (Label.json_string severity) (Label.json_string state)
           (json_float value)))
    entries;
  Buffer.contents buf

let transition_state (tr : Alert.transition) =
  match tr.Alert.edge with
  | Alert.To_pending -> "pending"
  | Alert.To_firing -> "firing"
  | Alert.To_resolved -> "resolved"

let transition_entry (tr : Alert.transition) =
  ( tr.Alert.at,
    tr.Alert.rule.Rule.name,
    Rule.severity_name tr.Alert.rule.Rule.severity,
    transition_state tr,
    tr.Alert.value )

let alert_timeline_jsonl alerts =
  alert_timeline_entries (List.map transition_entry (Alert.transitions alerts))

let alerts_prom alerts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n" Semconv.alerts_series
       (escape_help (Semconv.help Semconv.alerts_series))
       Semconv.alerts_series);
  let sample ~at ~state ~value (rule : Rule.t) =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %d %.0f\n" Semconv.alerts_series
         (Label.to_prometheus
            (Label.v
               [
                 (Semconv.l_alertname, rule.Rule.name);
                 (Semconv.l_alertstate, state);
                 (Semconv.l_severity, Rule.severity_name rule.Rule.severity);
               ]))
         value (at *. 1000.))
  in
  List.iter
    (fun (tr : Alert.transition) ->
      match tr.Alert.edge with
      | Alert.To_pending ->
          sample ~at:tr.Alert.at ~state:"pending" ~value:1 tr.Alert.rule
      | Alert.To_firing ->
          sample ~at:tr.Alert.at ~state:"firing" ~value:1 tr.Alert.rule
      | Alert.To_resolved ->
          sample ~at:tr.Alert.at ~state:"firing" ~value:0 tr.Alert.rule)
    (Alert.transitions alerts);
  Buffer.contents buf

(* Chrome trace-event JSON (catapult format, Perfetto-loadable): every
   retained exemplar trace becomes a process, every element a thread,
   every span a complete ("X") event with microsecond timestamps.
   Deterministic: traces slowest-first as the reservoir keeps them,
   spans by id, stable float formatting. *)
let chrome_trace_spans ~exemplars ~requests ~sampled ~finished ~dropped
    ~dropped_spans =
  let module Rt = Request_trace in
  let buf = Buffer.create 4096 in
  let us v = Printf.sprintf "%.3f" (v *. 1e6) in
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iter
    (fun (tr : Rt.trace) ->
      let pid = tr.Rt.tr_id in
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"request %d (%s s)\"}}"
           pid pid (float_repr (Rt.duration tr)));
      let named_tids = Hashtbl.create 8 in
      let on_path =
        let set = Hashtbl.create 32 in
        List.iter
          (fun (sp : Rt.span) -> Hashtbl.replace set sp.Rt.sp_id ())
          (Rt.critical_path tr);
        fun id -> Hashtbl.mem set id
      in
      Array.iter
        (fun (sp : Rt.span) ->
          let tid = sp.Rt.sp_node + 1 in
          if not (Hashtbl.mem named_tids tid) then begin
            Hashtbl.replace named_tids tid ();
            emit
              (Printf.sprintf
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}"
                 pid tid
                 (Label.json_string
                    (match sp.Rt.sp_kind with
                    | Rt.Stage _ ->
                        if sp.Rt.sp_node < 0 then "server"
                        else Printf.sprintf "shard %d" sp.Rt.sp_node
                    | _ ->
                        if sp.Rt.sp_node < 0 then "client/net"
                        else Printf.sprintf "node %d" sp.Rt.sp_node)))
          end;
          let cat =
            match sp.Rt.sp_kind with
            | Rt.Compute Rt.Service
            | Rt.Send (Rt.Service_request | Rt.Service_reply)
            | Rt.Wire (Rt.Service_request | Rt.Service_reply)
            | Rt.Recv (Rt.Service_request | Rt.Service_reply) ->
                "service"
            | Rt.Stage _ -> "serve"
            | _ -> "sched"
          in
          emit
            (Printf.sprintf
               "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d,\"cp\":%d}}"
               (Label.json_string (Rt.kind_name sp.Rt.sp_kind))
               cat
               (us sp.Rt.sp_start)
               (us (sp.Rt.sp_stop -. sp.Rt.sp_start))
               pid tid sp.Rt.sp_id sp.Rt.sp_parent
               (if on_path sp.Rt.sp_id then 1 else 0)))
        tr.Rt.tr_spans)
    exemplars;
  Buffer.add_string buf
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"requests\":%d,\"sampled\":%d,\"finished\":%d,\"dropped\":%d,\"dropped_spans\":%d}}\n"
       requests sampled finished dropped dropped_spans);
  Buffer.contents buf

let chrome_trace store =
  let module Rt = Request_trace in
  chrome_trace_spans ~exemplars:(Rt.exemplars store)
    ~requests:(Rt.requests_seen store) ~sampled:(Rt.sampled store)
    ~finished:(Rt.finished store) ~dropped:(Rt.dropped store)
    ~dropped_spans:(Rt.dropped_spans store)

