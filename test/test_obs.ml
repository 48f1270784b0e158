(* Tests for Adept_obs: labels, histograms (incl. the quantile error
   bound and merge algebra), ring buffers, the registry, exporters,
   tracer, the bounded-memory Run_stats, the model-vs-measured report,
   and the Prometheus golden export of a deterministic run. *)

module Label = Adept_obs.Label
module Histogram = Adept_obs.Histogram
module Counter = Adept_obs.Counter
module Gauge = Adept_obs.Gauge
module Ring = Adept_obs.Ring
module Registry = Adept_obs.Registry
module Tracer = Adept_obs.Tracer
module Semconv = Adept_obs.Semconv
module Export = Adept_obs.Export
module Report = Adept_obs.Report
module Run_stats = Adept_sim.Run_stats
module Scenario = Adept_sim.Scenario
module Tree = Adept_hierarchy.Tree
module Platform = Adept_platform.Platform
module Rt = Adept_obs.Request_trace
module Critical_path = Adept_obs.Critical_path
module Attribution = Adept_obs.Attribution

let params = Adept_model.Params.diet_lyon

(* ---------- Label ---------- *)

let test_label_canonical () =
  let a = Label.v [ ("b", "2"); ("a", "1") ] in
  let b = Label.v [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check bool) "order-insensitive equality" true (Label.equal a b);
  Alcotest.(check (list (pair string string)))
    "sorted pairs" [ ("a", "1"); ("b", "2") ] (Label.pairs a);
  Alcotest.(check (option string)) "find" (Some "2") (Label.find a "b");
  Alcotest.(check bool) "duplicate key rejected" true
    (match Label.v [ ("a", "1"); ("a", "2") ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad key rejected" true
    (match Label.v [ ("0bad", "1") ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_label_prometheus_escaping () =
  let l = Label.v [ ("k", "a\"b\\c\nd") ] in
  Alcotest.(check string) "escaped" "{k=\"a\\\"b\\\\c\\nd\"}" (Label.to_prometheus l);
  Alcotest.(check string) "empty renders empty" "" (Label.to_prometheus Label.empty)

(* ---------- Histogram ---------- *)

let test_histogram_exact_stats () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1.0; 2.0; 3.0; 4.0 ];
  let s = Histogram.snapshot h in
  Alcotest.(check int) "count" 4 (Histogram.count s);
  Alcotest.(check (float 1e-12)) "sum" 10.0 (Histogram.sum s);
  Alcotest.(check (float 1e-12)) "min" 1.0 (Option.get (Histogram.min_recorded s));
  Alcotest.(check (float 1e-12)) "max" 4.0 (Option.get (Histogram.max_recorded s));
  Alcotest.(check (float 1e-12)) "mean" 2.5 (Option.get (Histogram.mean s))

let test_histogram_edge_values () =
  let h = Histogram.create ~min_value:1e-6 ~max_value:1e6 () in
  Histogram.record h Float.nan;
  (* ignored *)
  Histogram.record h (-5.0);
  (* underflow bucket *)
  Histogram.record h 0.0;
  (* underflow bucket *)
  Histogram.record h 1e12;
  (* clamped to max_value *)
  let s = Histogram.snapshot h in
  Alcotest.(check int) "NaN ignored" 3 (Histogram.count s);
  Alcotest.(check bool) "quantile of underflow is min_value" true
    (Option.get (Histogram.quantile s 10.0) <= 1e-6);
  Alcotest.(check bool) "clamped stays below max" true
    (Option.get (Histogram.quantile s 100.0) <= 1e6 *. 1.02)

(* The documented guarantee: every quantile estimate is within alpha
   relative error of the exact percentile of the recorded stream. *)
let exact_percentile values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int n))) in
  List.nth sorted (rank - 1)

let prop_histogram_quantile_bound =
  QCheck.Test.make ~count:200 ~name:"histogram quantile within alpha bound"
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1e-6 1e6))
    (fun values ->
      let alpha = 0.01 in
      let h = Histogram.create ~alpha () in
      List.iter (Histogram.record h) values;
      let s = Histogram.snapshot h in
      List.for_all
        (fun q ->
          let exact = exact_percentile values q in
          let est = Option.get (Histogram.quantile s q) in
          Float.abs (est -. exact) <= (alpha *. exact *. 1.000001) +. 1e-12)
        [ 0.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ])

(* Merge algebra: merging shard snapshots is the same as recording the
   concatenated stream, and merge is commutative/associative. *)
let snapshot_of values =
  let h = Histogram.create () in
  List.iter (Histogram.record h) values;
  Histogram.snapshot h

let same_snapshot a b =
  (* sums are accumulated in different orders, so compare them to fp
     round-off; counts, extrema and buckets must agree exactly *)
  Histogram.count a = Histogram.count b
  && Float.abs (Histogram.sum a -. Histogram.sum b)
     <= 1e-9 *. Float.max 1.0 (Float.abs (Histogram.sum a))
  && Histogram.min_recorded a = Histogram.min_recorded b
  && Histogram.max_recorded a = Histogram.max_recorded b
  && Histogram.cumulative_buckets a = Histogram.cumulative_buckets b

let prop_histogram_merge_is_concat =
  QCheck.Test.make ~count:200 ~name:"merge of shards = single-stream recording"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 100) (float_range 1e-6 1e6))
        (list_of_size Gen.(int_range 0 100) (float_range 1e-6 1e6)))
    (fun (xs, ys) ->
      same_snapshot
        (Histogram.merge (snapshot_of xs) (snapshot_of ys))
        (snapshot_of (xs @ ys)))

let prop_histogram_merge_commutes =
  QCheck.Test.make ~count:200 ~name:"merge commutative and associative"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 60) (float_range 1e-6 1e6))
        (list_of_size Gen.(int_range 0 60) (float_range 1e-6 1e6))
        (list_of_size Gen.(int_range 0 60) (float_range 1e-6 1e6)))
    (fun (xs, ys, zs) ->
      let a = snapshot_of xs and b = snapshot_of ys and c = snapshot_of zs in
      same_snapshot (Histogram.merge a b) (Histogram.merge b a)
      && same_snapshot
           (Histogram.merge (Histogram.merge a b) c)
           (Histogram.merge a (Histogram.merge b c)))

let test_histogram_merge_alpha_mismatch () =
  let a = Histogram.snapshot (Histogram.create ~alpha:0.01 ()) in
  let b = Histogram.snapshot (Histogram.create ~alpha:0.02 ()) in
  Alcotest.(check bool) "mismatched alpha rejected" true
    (match Histogram.merge a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_bounded_buckets () =
  let h = Histogram.create () in
  let rng = Adept_util.Rng.create 5 in
  for _ = 1 to 100_000 do
    Histogram.record h (Adept_util.Rng.float rng 1000.0 +. 1e-9)
  done;
  let s = Histogram.snapshot h in
  Alcotest.(check int) "count" 100_000 (Histogram.count s);
  Alcotest.(check bool)
    (Printf.sprintf "buckets bounded (%d)" (Histogram.num_buckets s))
    true
    (Histogram.num_buckets s < 2500)

(* ---------- Ring ---------- *)

let test_ring_window_exact () =
  let r = Ring.create ~retention:infinity () in
  List.iter (fun t -> Ring.push r ~time:t t) [ 0.0; 1.0; 1.0; 2.5; 4.0 ];
  Alcotest.(check int) "half-open window" 3 (Ring.count_in r ~t0:1.0 ~t1:4.0);
  Alcotest.(check int) "everything" 5 (Ring.count_in r ~t0:0.0 ~t1:5.0);
  Alcotest.(check int) "empty window" 0 (Ring.count_in r ~t0:5.0 ~t1:9.0)

let test_ring_prunes_and_guards () =
  let r = Ring.create ~capacity:4 ~retention:2.0 () in
  for i = 0 to 99 do
    Ring.push r ~time:(float_of_int i) 0.0
  done;
  Alcotest.(check bool) "bounded length" true (Ring.length r <= 4);
  Alcotest.(check int) "recent window intact" 2 (Ring.count_in r ~t0:98.0 ~t1:100.0);
  Alcotest.(check bool) "pre-retention query rejected" true
    (match Ring.count_in r ~t0:10.0 ~t1:20.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "time must not decrease" true
    (match Ring.push r ~time:0.0 0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Registry ---------- *)

let test_registry_get_or_create () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg "adept_test_total" in
  let c2 = Registry.counter reg "adept_test_total" in
  Counter.inc c1;
  Counter.inc c2;
  Alcotest.(check (float 0.0)) "same series" 2.0 (Counter.value c1);
  let labels = Label.v [ ("node", "1") ] in
  let _ = Registry.counter reg ~labels "adept_test_total" in
  Alcotest.(check int) "two series" 2 (Registry.num_series reg);
  Alcotest.(check bool) "kind conflict rejected" true
    (match Registry.gauge reg "adept_test_total" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Tracer ---------- *)

let test_tracer_spans_and_bound () =
  let tr = Tracer.create ~max_items:3 () in
  let sp = Tracer.span_start tr ~at:1.0 "migration" in
  Tracer.event tr ~at:1.5 "crash";
  Tracer.span_end tr ~at:2.0 sp;
  Tracer.span_end tr ~at:9.0 sp;
  (* idempotent *)
  Tracer.event tr ~at:2.5 "a";
  Tracer.event tr ~at:3.0 "b";
  Alcotest.(check int) "bounded" 3 (Tracer.length tr);
  Alcotest.(check int) "drops counted" 1 (Tracer.dropped tr);
  match Tracer.items tr with
  | Tracer.Span { end_at; _ } :: _ ->
      Alcotest.(check (option (float 0.0))) "span closed once" (Some 2.0) end_at
  | _ -> Alcotest.fail "expected leading span"

(* ---------- Exporters ---------- *)

let small_registry () =
  let reg = Registry.create () in
  Counter.inc ~by:3.0 (Registry.counter reg ~help:"Things counted." "adept_things_total");
  Gauge.set (Registry.gauge reg "adept_level") 0.5;
  let h = Registry.histogram reg ~labels:(Label.v [ ("node", "1") ]) "adept_time_seconds" in
  Histogram.record h 0.5;
  Histogram.record h 2.0;
  reg

let test_export_prometheus_format () =
  let text = Export.prometheus (Registry.snapshot (small_registry ())) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle text))
    [
      "# HELP adept_things_total Things counted.";
      "# TYPE adept_things_total counter";
      "adept_things_total 3";
      "adept_level 0.5";
      "# TYPE adept_time_seconds histogram";
      "adept_time_seconds_bucket{le=\"+Inf\",node=\"1\"} 2";
      "adept_time_seconds_sum{node=\"1\"} 2.5";
      "adept_time_seconds_count{node=\"1\"} 2";
    ]

let test_export_jsonl_and_csv () =
  let families = Registry.snapshot (small_registry ()) in
  let jsonl = Export.jsonl families in
  Alcotest.(check int) "one line per series" 3
    (List.length (String.split_on_char '\n' (String.trim jsonl)));
  Alcotest.(check bool) "json objects" true
    (List.for_all
       (fun l -> String.length l > 1 && l.[0] = '{')
       (String.split_on_char '\n' (String.trim jsonl)));
  let csv = Adept_util.Csv.to_string (Export.csv families) in
  Alcotest.(check bool) "csv header" true
    (Astring.String.is_prefix ~affix:"metric,labels,stat,value" csv);
  Alcotest.(check bool) "csv p95 row" true
    (Astring.String.is_infix ~affix:"adept_time_seconds" csv)

let test_export_deterministic () =
  let render () = Export.prometheus (Registry.snapshot (small_registry ())) in
  Alcotest.(check string) "identical across registries" (render ()) (render ())

(* ---------- Run_stats bounded memory ---------- *)

let test_run_stats_bounded_memory () =
  let s = Run_stats.create ~retention:5.0 () in
  let n = 1_000_000 in
  for i = 1 to n do
    let time = float_of_int i *. 0.001 in
    Run_stats.record_issue s ~time;
    Run_stats.record_completion s ~issued_at:(time -. 0.0005) ~time ~server:0
  done;
  Alcotest.(check int) "all counted" n (Run_stats.completed s);
  (* retention is 5 s at 1000 completions/s: the ring holds the window,
     not the run *)
  Alcotest.(check bool)
    (Printf.sprintf "ring bounded (%d)" (Run_stats.retained_completions s))
    true
    (Run_stats.retained_completions s < 10_000);
  Alcotest.(check bool) "histogram bounded" true
    (Adept_obs.Histogram.num_buckets (Run_stats.response_snapshot s) < 2500);
  Alcotest.(check int) "window query exact" 5000
    (Run_stats.completions_in s ~t0:995.0 ~t1:1000.0);
  Alcotest.(check bool) "percentile still served" true
    (Run_stats.response_percentile s 95.0 <> None)

(* ---------- instrumented scenario ---------- *)

let star_platform n_servers =
  Adept_platform.Generator.grid5000_lyon ~n:(n_servers + 1) ()

let star_tree platform =
  let nodes = Platform.nodes platform in
  Tree.star (List.hd nodes) (List.tl nodes)

let observed_scenario () =
  let platform = star_platform 3 in
  let tree = star_tree platform in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
  ( platform,
    tree,
    Scenario.make ~seed:11 ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job)
      tree )

let test_scenario_obs_bit_identical () =
  let _, _, s = observed_scenario () in
  let plain = Scenario.run_fixed s ~clients:8 ~warmup:1.0 ~duration:2.0 in
  let registry = Registry.create () in
  let observed =
    Scenario.run_fixed ~registry s ~clients:8 ~warmup:1.0 ~duration:2.0
  in
  Alcotest.(check (float 0.0)) "throughput identical" plain.Scenario.throughput
    observed.Scenario.throughput;
  Alcotest.(check int) "completions identical" plain.Scenario.completed_total
    observed.Scenario.completed_total;
  Alcotest.(check (option (float 0.0))) "mean response identical"
    plain.Scenario.mean_response observed.Scenario.mean_response;
  Alcotest.(check bool) "series recorded" true (Registry.num_series registry > 10)

let test_scenario_obs_counters_consistent () =
  let _, _, s = observed_scenario () in
  let registry = Registry.create () in
  let r = Scenario.run_fixed ~registry s ~clients:8 ~warmup:1.0 ~duration:2.0 in
  let counter_value name =
    match Registry.find registry name with
    | Some { Registry.series = [ (_, Registry.Counter v) ]; _ } -> int_of_float v
    | _ -> -1
  in
  Alcotest.(check int) "issued counter" r.Scenario.issued_total
    (counter_value Semconv.requests_issued_total);
  Alcotest.(check int) "completed counter" r.Scenario.completed_total
    (counter_value Semconv.requests_completed_total)

let test_report_low_deviation () =
  let platform, tree, s = observed_scenario () in
  let registry = Registry.create () in
  let _ = Scenario.run_fixed ~registry s ~clients:30 ~warmup:2.0 ~duration:4.0 in
  let wapp = Adept_workload.Dgemm.(mflops (make 200)) in
  let report = Report.build ~registry ~params ~platform ~wapp ~tree in
  Alcotest.(check bool) "rows for every element" true
    (List.length report.Report.rows = 2 + (3 * 2));
  match Report.max_deviation report with
  | None -> Alcotest.fail "nothing measured"
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "max deviation %.4f below 5%%" d)
        true (d < 0.05);
      Alcotest.(check bool) "render mentions it" true
        (Astring.String.is_infix ~affix:"max deviation"
           (Report.render report))

(* ---------- request traces: store mechanics ---------- *)

(* One synthetic finished trace of the given duration. *)
let synthetic_trace store ~duration =
  match Rt.begin_request store ~now:0.0 with
  | None -> ()
  | Some h ->
      let _ =
        Rt.add_span store h ~parent:(-1) ~kind:(Rt.Compute Rt.Service) ~node:0
          ~start:0.0 ~stop:duration
      in
      Rt.finish store h ~now:duration

let test_rtrace_reservoir_top_n () =
  let store = Rt.create ~max_traces:3 () in
  List.iter
    (fun d -> synthetic_trace store ~duration:d)
    [ 4.0; 1.0; 6.0; 3.0; 5.0; 2.0 ];
  Alcotest.(check int) "all finished" 6 (Rt.finished store);
  Alcotest.(check int) "evictions counted as dropped" 3 (Rt.dropped store);
  Alcotest.(check (list (float 1e-12)))
    "true top-3, slowest first" [ 6.0; 5.0; 4.0 ]
    (List.map Rt.duration (Rt.exemplars store))

let test_rtrace_sampling_deterministic () =
  let sampled_set rate =
    let store = Rt.create ~sample_rate:rate () in
    List.filter_map
      (fun _ -> Option.map Rt.trace_id (Rt.begin_request store ~now:0.0))
      (List.init 400 Fun.id)
  in
  Alcotest.(check (list int)) "same rate, same sampled id set"
    (sampled_set 0.35) (sampled_set 0.35);
  let at_035 = List.length (sampled_set 0.35) in
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.35 samples a strict subset (%d of 400)" at_035)
    true
    (at_035 > 0 && at_035 < 400);
  Alcotest.(check int) "rate 0 samples nothing" 0 (List.length (sampled_set 0.0));
  Alcotest.(check int) "rate 1 samples everything" 400
    (List.length (sampled_set 1.0));
  (* the decision is a pure function of the trace id *)
  let store = Rt.create ~sample_rate:0.35 () in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "would_sample %d stable" id)
        (Rt.would_sample store id) (Rt.would_sample store id))
    [ 0; 1; 17; 123456 ]

let test_rtrace_span_overflow_drops () =
  let store = Rt.create ~max_spans:2 () in
  (match Rt.begin_request store ~now:0.0 with
  | None -> Alcotest.fail "rate 1 must sample"
  | Some h ->
      let p = ref (-1) in
      for i = 1 to 3 do
        p :=
          Rt.add_span store h ~parent:!p ~kind:(Rt.Compute Rt.Wreq) ~node:0
            ~start:(float_of_int (i - 1))
            ~stop:(float_of_int i)
      done;
      Rt.finish store h ~now:3.0);
  Alcotest.(check int) "overflowing span discarded" 1 (Rt.dropped_spans store);
  Alcotest.(check int) "poisoned trace dropped at finish" 1 (Rt.dropped store);
  Alcotest.(check (list (float 0.0))) "not retained" []
    (List.map Rt.duration (Rt.exemplars store))

(* ---------- request traces: a simulated star run ---------- *)

let traced_run ?(max_traces = 4) ?(clients = 8) () =
  let platform, tree, s = observed_scenario () in
  let registry = Registry.create () in
  let store = Rt.create ~max_traces () in
  let r =
    Scenario.run_fixed ~registry ~rtrace:store s ~clients ~warmup:1.0
      ~duration:2.0
  in
  (platform, tree, registry, store, r)

let utilization_of registry =
  match Registry.find registry Semconv.node_utilization_ratio with
  | None -> []
  | Some fam ->
      List.filter_map
        (fun (labels, value) ->
          match
            (Option.bind (Label.find labels Semconv.l_node) int_of_string_opt, value)
          with
          | Some id, Registry.Gauge u -> Some (id, u)
          | _ -> None)
        fam.Registry.series

let test_rtrace_critical_path_tiles () =
  let _, _, _, store, _ = traced_run () in
  Alcotest.(check bool) "exemplars retained" true (Rt.exemplars store <> []);
  List.iter
    (fun tr ->
      let cp = Rt.critical_path tr in
      (match cp with
      | [] -> Alcotest.fail "empty critical path"
      | first :: _ ->
          Alcotest.(check (float 0.0)) "chain starts at issue"
            tr.Rt.tr_issued first.Rt.sp_start);
      (* spans are recorded at completion from the same engine instants,
         so adjacent segments must meet exactly — no tolerance *)
      let rec tiles = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check (float 0.0)) "adjacent segments meet" a.Rt.sp_stop
              b.Rt.sp_start;
            tiles rest
        | [ last ] ->
            Alcotest.(check (float 0.0)) "chain ends at completion"
              tr.Rt.tr_finished last.Rt.sp_stop
        | [] -> ()
      in
      tiles cp)
    (Rt.exemplars store)

let test_rtrace_attribution_matches_model () =
  let platform, tree, registry, store, _ = traced_run () in
  let wapp = Adept_workload.Dgemm.(mflops (make 200)) in
  let predicted =
    Adept.Evaluate.bottleneck_element params
      ~bandwidth:
        (Option.get (Adept_platform.Link.uniform_bandwidth (Platform.link platform)))
      ~wapp tree
  in
  let attribution =
    Attribution.build ~store ~tree ~utilization:(utilization_of registry)
      ~predicted ()
  in
  Alcotest.(check bool) "service side predicted" true
    (predicted.Adept.Evaluate.be_side = `Service);
  Alcotest.(check (option bool)) "measurement confirms the model" (Some true)
    (Attribution.matches attribution);
  Alcotest.(check bool) "render carries the verdict" true
    (Astring.String.is_infix ~affix:"verdict: MATCH"
       (Attribution.render attribution))

let test_rtrace_observation_only () =
  let _, _, s = observed_scenario () in
  let plain = Scenario.run_fixed s ~clients:8 ~warmup:1.0 ~duration:2.0 in
  let traced =
    Scenario.run_fixed ~rtrace:(Rt.create ()) s ~clients:8 ~warmup:1.0
      ~duration:2.0
  in
  Alcotest.(check (float 0.0)) "throughput bit-identical" plain.Scenario.throughput
    traced.Scenario.throughput;
  Alcotest.(check int) "completions bit-identical" plain.Scenario.completed_total
    traced.Scenario.completed_total;
  Alcotest.(check (option (float 0.0))) "mean response bit-identical"
    plain.Scenario.mean_response traced.Scenario.mean_response

(* Satellite property: fault-free critical paths account for the whole
   response, and no element is attributed more than the wall time. *)
let prop_critical_path_accounts_response =
  QCheck.Test.make ~count:20 ~name:"critical path sums to end-to-end response"
    QCheck.(pair (int_range 1 1000) (int_range 2 10))
    (fun (seed, clients) ->
      let platform = star_platform 3 in
      let tree = star_tree platform in
      let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make 200) in
      let s =
        Scenario.make ~seed ~params ~platform
          ~client:(Adept_workload.Client.closed_loop job)
          tree
      in
      let store = Rt.create ~max_traces:8 () in
      let _ = Scenario.run_fixed ~rtrace:store s ~clients ~warmup:0.5 ~duration:1.0 in
      Rt.exemplars store <> []
      && List.for_all
           (fun tr ->
             let wall = Rt.duration tr in
             let sum =
               List.fold_left
                 (fun acc sp -> acc +. (sp.Rt.sp_stop -. sp.Rt.sp_start))
                 0.0 (Rt.critical_path tr)
             in
             Float.abs (sum -. wall) <= 1e-9 *. Float.max 1.0 wall
             && List.for_all
                  (fun share ->
                    Critical_path.seconds share <= wall *. (1.0 +. 1e-9))
                  (Critical_path.by_element tr))
           (Rt.exemplars store))

(* ---------- continuous monitoring: rules, time series, alerts ---------- *)

module Rule = Adept_obs.Rule
module Timeseries = Adept_obs.Timeseries
module Alert = Adept_obs.Alert
module Dashboard = Adept_obs.Dashboard

(* The regression satellite: merging an empty snapshot used to widen the
   clamp bounds to the empty histogram's configuration, shifting the
   underflow bucket — merge with empty must be the identity. *)
let test_histogram_merge_empty_identity () =
  let h = Histogram.create ~min_value:1e-3 ~max_value:1e3 () in
  List.iter (Histogram.record h) [ 0.0; 0.5; 2.0 ] (* 0.0 underflows *);
  let s = Histogram.snapshot h in
  let empty =
    Histogram.snapshot (Histogram.create ~min_value:1e-9 ~max_value:1e9 ())
  in
  let check_same tag m =
    Alcotest.(check bool) (tag ^ " identical") true (same_snapshot m s);
    Alcotest.(check (option (float 0.0)))
      (tag ^ " underflow quantile unchanged")
      (Histogram.quantile s 10.0) (Histogram.quantile m 10.0)
  in
  check_same "s+empty" (Histogram.merge s empty);
  check_same "empty+s" (Histogram.merge empty s);
  let e2 = Histogram.merge empty empty in
  Alcotest.(check int) "empty+empty stays empty" 0 (Histogram.count e2)

let test_ring_retention_boundary () =
  let r = Ring.create ~retention:2.0 () in
  List.iter (fun t -> Ring.push r ~time:t t) [ 0.0; 1.0; 2.0; 3.0 ];
  (* prune drops time < latest - retention: the sample exactly at the
     cutoff stays *)
  Alcotest.(check (option (float 0.0))) "boundary sample retained" (Some 1.0)
    (Ring.oldest_time r);
  Alcotest.(check int) "window starting at the cutoff is answerable" 3
    (Ring.count_in r ~t0:1.0 ~t1:3.5);
  (* the guard is precise: a window that only misses never-pushed times
     is answerable, one that reaches a pruned sample is refused *)
  Alcotest.(check int) "window over never-pushed times answerable" 3
    (Ring.count_in r ~t0:0.5 ~t1:3.5);
  Alcotest.(check bool) "window reaching a pruned sample rejected" true
    (match Ring.count_in r ~t0:0.0 ~t1:3.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ring_find_at_or_before () =
  let check_opt = Alcotest.(check (option (pair (float 0.0) (float 0.0)))) in
  let r = Ring.create ~retention:2.0 () in
  List.iter (fun t -> Ring.push r ~time:t (t *. 10.)) [ 0.0; 1.0; 2.0; 3.0 ];
  check_opt "exact hit" (Some (2.0, 20.0)) (Ring.find_at_or_before r ~time:2.0);
  check_opt "between samples" (Some (2.0, 20.0))
    (Ring.find_at_or_before r ~time:2.5);
  check_opt "after the latest" (Some (3.0, 30.0))
    (Ring.find_at_or_before r ~time:9.0);
  check_opt "pruned history is None" None (Ring.find_at_or_before r ~time:0.5);
  check_opt "empty ring is None" None
    (Ring.find_at_or_before (Ring.create ~retention:1.0 ()) ~time:1.0)

(* The exposition-format escaping satellite, pinned through the whole
   export path: backslash, double quote and newline in a label value. *)
let test_export_prometheus_escaping_pinned () =
  let reg = Registry.create () in
  let labels = Label.v [ ("path", "C:\\tmp\n\"x\"") ] in
  Counter.inc (Registry.counter reg ~labels "adept_escape_total");
  let text = Export.prometheus (Registry.snapshot reg) in
  Alcotest.(check bool) "escaped label value pinned" true
    (Astring.String.is_infix
       ~affix:"adept_escape_total{path=\"C:\\\\tmp\\n\\\"x\\\"\"}" text)

let test_rule_parse_roundtrip () =
  let text =
    "# comment lines and blanks are skipped\n\n\
     alert high-loss severity=critical for=2 when \
     rate(adept_requests_lost_total[5]) > 0.5\n\
     alert burn severity=warning when min(rate(m_total[1]), rate(m_total[10])) \
     > 2\n\
     alert mean-drift when abs(mean(adept_server_service_seconds{node=\"3\"}[4]) \
     / 0.25 - 1) > 0.5\n"
  in
  match Rule.parse text with
  | Error e -> Alcotest.fail e
  | Ok rules -> (
      Alcotest.(check int) "three rules" 3 (List.length rules);
      Alcotest.(check (list string)) "names"
        [ "high-loss"; "burn"; "mean-drift" ]
        (List.map (fun (r : Rule.t) -> r.Rule.name) rules);
      let printed = String.concat "\n" (List.map Rule.to_string rules) in
      match Rule.parse printed with
      | Error e -> Alcotest.fail ("reparse of printed rules: " ^ e)
      | Ok rules' ->
          Alcotest.(check (list string)) "print-parse fixpoint"
            (List.map Rule.to_string rules)
            (List.map Rule.to_string rules'))

let test_rule_parse_errors () =
  let bad s =
    match Rule.parse s with
    | Error e -> e
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
  in
  Alcotest.(check bool) "truncated rule names its line" true
    (Astring.String.is_infix ~affix:"line 1" (bad "alert a when last(x) >"));
  Alcotest.(check bool) "error after a comment names line 2" true
    (Astring.String.is_infix ~affix:"line 2"
       (bad "# fine\nalert b last(x) > 0"));
  Alcotest.(check bool) "unknown severity rejected" true
    (bad "alert a severity=loud when last(x) > 0" <> "");
  Alcotest.(check bool) "burn_rate wants short < long" true
    (match
       Rule.burn_rate "b" (Rule.selector "m_total") ~short:5.0 ~long:1.0
         ~bound:1.0
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rule_selectors_dedup () =
  let sel = Rule.selector "adept_test_seconds" in
  let r =
    Rule.v "mean-vs-mean"
      (Rule.Window_mean (sel, 2.0))
      Rule.Gt
      (Rule.Window_mean (sel, 4.0))
  in
  (* Window_mean expands to Sum and Count sub-selectors, deduplicated
     across both windows *)
  Alcotest.(check int) "two sub-selectors" 2 (List.length (Rule.selectors r));
  Alcotest.(check (float 0.0)) "max window" 4.0 (Rule.max_window r)

let test_timeseries_scrape_and_eval () =
  let reg = Registry.create () in
  let c = Registry.counter reg "adept_flow_total" in
  let sel = Rule.selector "adept_flow_total" in
  let ts = Timeseries.create ~retention:10.0 [ sel ] in
  (* family missing entirely: gap, not zero *)
  let missing = Timeseries.create ~retention:10.0 [ Rule.selector "adept_nope" ] in
  Timeseries.scrape missing ~registry:reg ~now:0.0;
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "missing family records no sample" None
    (Timeseries.last missing (Rule.selector "adept_nope"));
  (* 2 req/s: +1 every 0.5 s *)
  for i = 0 to 10 do
    let now = 0.5 *. float_of_int i in
    if i > 0 then Counter.inc c;
    Timeseries.scrape ts ~registry:reg ~now
  done;
  Alcotest.(check int) "scrape count" 11 (Timeseries.scrapes ts);
  Alcotest.(check (option (float 1e-9))) "last value" (Some 10.0)
    (Option.map snd (Timeseries.last ts sel));
  Alcotest.(check (option (float 1e-9))) "rate over 2 s" (Some 2.0)
    (Timeseries.eval ts ~now:5.0 (Rule.Rate (sel, 2.0)));
  Alcotest.(check (option (float 1e-9))) "delta over 2 s" (Some 4.0)
    (Timeseries.eval ts ~now:5.0 (Rule.Delta (sel, 2.0)));
  Alcotest.(check (option (float 1e-9))) "window past history is None" None
    (Timeseries.eval ts ~now:0.0 (Rule.Rate (sel, 2.0)));
  Alcotest.(check (option (float 1e-9))) "division by zero is None" None
    (Timeseries.eval ts ~now:5.0 (Rule.Div (Rule.Const 1.0, Rule.Const 0.0)));
  Alcotest.(check (option (float 1e-9))) "arithmetic lifts" (Some 7.0)
    (Timeseries.eval ts ~now:5.0
       (Rule.Add (Rule.Rate (sel, 2.0), Rule.Const 5.0)))

let test_timeseries_label_subset_and_merge () =
  let reg = Registry.create () in
  let h node =
    Registry.histogram reg
      ~labels:(Label.v [ ("node", string_of_int node) ])
      "adept_part_seconds"
  in
  List.iter (Histogram.record (h 1)) [ 1.0; 1.0 ];
  List.iter (Histogram.record (h 2)) [ 5.0; 5.0 ];
  let one =
    Rule.selector ~stat:Rule.Count
      ~labels:(Label.v [ ("node", "1") ])
      "adept_part_seconds"
  in
  let all = Rule.selector ~stat:Rule.Count "adept_part_seconds" in
  let sum_all = Rule.selector ~stat:Rule.Sum "adept_part_seconds" in
  let ts = Timeseries.create ~retention:10.0 [ one; all; sum_all ] in
  Timeseries.scrape ts ~registry:reg ~now:0.0;
  Alcotest.(check (option (float 1e-9))) "subset matches one series" (Some 2.0)
    (Option.map snd (Timeseries.last ts one));
  Alcotest.(check (option (float 1e-9))) "empty matcher merges all" (Some 4.0)
    (Option.map snd (Timeseries.last ts all));
  Alcotest.(check (option (float 1e-9))) "merged sum" (Some 12.0)
    (Option.map snd (Timeseries.last ts sum_all))

(* A tiny synthetic loop: one gauge, one threshold rule with a 1 s hold.
   Exercises the full Inactive -> Pending -> Firing -> resolved cycle and
   the silent Pending reset. *)
let synthetic_alert () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "adept_test_gauge" in
  let sel = Rule.selector "adept_test_gauge" in
  let rule =
    Rule.threshold ~severity:Rule.Critical ~for_duration:1.0 "hot" sel Rule.Gt
      10.0
  in
  let ts = Timeseries.create ~retention:10.0 (Rule.selectors rule) in
  let alerts =
    match Alert.create ~timeseries:ts [ rule ] with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let step now v =
    Gauge.set g v;
    Timeseries.scrape ts ~registry:reg ~now;
    Alert.eval alerts ~now
  in
  (alerts, step)

let drive_synthetic step =
  step 0.0 5.0;
  step 0.5 20.0;
  step 1.0 20.0;
  step 1.5 20.0;
  (* held for 1.0 s -> fires *)
  step 2.0 5.0;
  (* resolves *)
  step 2.5 20.0;
  (* pending again ... *)
  step 3.0 5.0
(* ... and resets silently *)

let test_alert_state_machine () =
  let alerts, step = synthetic_alert () in
  step 0.0 5.0;
  Alcotest.(check bool) "inactive below bound" true
    (Alert.state alerts "hot" = Some Alert.Inactive);
  step 0.5 20.0;
  Alcotest.(check bool) "pending on first true" true
    (match Alert.state alerts "hot" with
    | Some (Alert.Pending since) -> since = 0.5
    | _ -> false);
  step 1.0 20.0;
  Alcotest.(check bool) "still pending under the hold" true
    (match Alert.state alerts "hot" with
    | Some (Alert.Pending _) -> true
    | _ -> false);
  Alcotest.(check (list string)) "no firing yet" []
    (Alert.firing_names alerts);
  step 1.5 20.0;
  Alcotest.(check bool) "fires once held for for_duration" true
    (match Alert.state alerts "hot" with
    | Some (Alert.Firing _) -> true
    | _ -> false);
  Alcotest.(check (list string)) "firing listed" [ "hot" ]
    (Alert.firing_names alerts);
  step 2.0 5.0;
  Alcotest.(check bool) "resolves when false" true
    (Alert.state alerts "hot" = Some Alert.Inactive);
  step 2.5 20.0;
  step 3.0 5.0;
  let edges =
    List.map
      (fun (tr : Alert.transition) ->
        match tr.Alert.edge with
        | Alert.To_pending -> "pending"
        | Alert.To_firing -> "firing"
        | Alert.To_resolved -> "resolved")
      (Alert.transitions alerts)
  in
  (* the second pending resets silently: no resolved edge for it *)
  Alcotest.(check (list string)) "edge log"
    [ "pending"; "firing"; "resolved"; "pending" ]
    edges;
  match Alert.firing_intervals alerts with
  | [ (r, fired, Some resolved) ] ->
      Alcotest.(check string) "interval rule" "hot" r.Rule.name;
      Alcotest.(check (float 0.0)) "fired at" 1.5 fired;
      Alcotest.(check (float 0.0)) "resolved at" 2.0 resolved
  | _ -> Alcotest.fail "expected exactly one closed firing interval"

let test_alert_burn_rate_two_windows () =
  let reg = Registry.create () in
  let c = Registry.counter reg "adept_burn_total" in
  let sel = Rule.selector "adept_burn_total" in
  let rule = Rule.burn_rate "burn" sel ~short:1.0 ~long:4.0 ~bound:5.0 in
  let ts = Timeseries.create ~retention:20.0 (Rule.selectors rule) in
  let alerts =
    match Alert.create ~timeseries:ts [ rule ] with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let step now by =
    Counter.inc ~by c;
    Timeseries.scrape ts ~registry:reg ~now;
    Alert.eval alerts ~now
  in
  (* flat, then one short spike: the long window disagrees, no fire *)
  List.iter (fun i -> step (0.5 *. float_of_int i) 0.5) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  step 4.0 10.0;
  step 4.5 0.5;
  Alcotest.(check (list string)) "short spike rides out" []
    (Alert.firing_names alerts);
  (* sustained burn: both windows agree, fires *)
  List.iter
    (fun i -> step (5.0 +. (0.5 *. float_of_int i)) 10.0)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check (list string)) "sustained burn fires" [ "burn" ]
    (Alert.firing_names alerts)

let test_alert_create_validation () =
  let sel = Rule.selector "adept_test_gauge" in
  let ts = Timeseries.create ~retention:1.0 [ sel ] in
  (match
     Alert.create ~timeseries:ts
       [ Rule.threshold "a" sel Rule.Gt 1.0; Rule.threshold "a" sel Rule.Lt 0.0 ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate rule names accepted");
  match
    Alert.create ~timeseries:ts [ Rule.v "w" (Rule.Rate (sel, 5.0)) Rule.Gt (Rule.Const 0.) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rule window beyond retention accepted"

(* Timeline exporters, pinned on the synthetic loop (deterministic). *)
let test_export_alert_timeline () =
  let alerts, step = synthetic_alert () in
  drive_synthetic step;
  let jsonl = Export.alert_timeline_jsonl alerts in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "four transitions" 4 (List.length lines);
  Alcotest.(check string) "first line"
    "{\"at\":0.5,\"alert\":\"hot\",\"severity\":\"critical\",\"state\":\"pending\",\"value\":20}"
    (List.nth lines 0);
  Alcotest.(check string) "firing line"
    "{\"at\":1.5,\"alert\":\"hot\",\"severity\":\"critical\",\"state\":\"firing\",\"value\":20}"
    (List.nth lines 1);
  Alcotest.(check string) "resolved line"
    "{\"at\":2,\"alert\":\"hot\",\"severity\":\"critical\",\"state\":\"resolved\",\"value\":5}"
    (List.nth lines 2);
  let prom = Export.alerts_prom alerts in
  Alcotest.(check bool) "ALERTS firing sample" true
    (Astring.String.is_infix
       ~affix:
         "ALERTS{alertname=\"hot\",alertstate=\"firing\",severity=\"critical\"} 1 1500"
       prom);
  Alcotest.(check bool) "ALERTS resolved sample" true
    (Astring.String.is_infix
       ~affix:
         "ALERTS{alertname=\"hot\",alertstate=\"firing\",severity=\"critical\"} 0 2000"
       prom)

let test_dashboard_structural () =
  let alerts, step = synthetic_alert () in
  drive_synthetic step;
  let ts = Alert.timeseries alerts in
  let html =
    Dashboard.render ~timeseries:ts ~alerts
      [
        Dashboard.panel ~unit_:"units" "test gauge"
          [ ("gauge", Rule.Last (Rule.selector "adept_test_gauge")) ];
      ]
  in
  let has affix = Astring.String.is_infix ~affix html in
  Alcotest.(check bool) "full document" true
    (Astring.String.is_prefix ~affix:"<!DOCTYPE html>" html);
  Alcotest.(check bool) "inline svg" true (has "<svg");
  Alcotest.(check bool) "sparkline polyline" true (has "<polyline");
  Alcotest.(check bool) "alert band drawn" true (has "alert-band");
  Alcotest.(check bool) "alert table" true (has "class=\"alerts\"");
  Alcotest.(check bool) "no scripts" true (not (has "<script"));
  Alcotest.(check bool) "no external references" true (not (has "http"));
  Alcotest.(check string) "byte-identical re-render" html
    (Dashboard.render ~timeseries:ts ~alerts
       [
         Dashboard.panel ~unit_:"units" "test gauge"
           [ ("gauge", Rule.Last (Rule.selector "adept_test_gauge")) ];
       ]);
  (* an empty store still renders a complete document *)
  let empty =
    Dashboard.render
      ~timeseries:(Timeseries.create ~retention:1.0 [])
      [ Dashboard.panel "empty" [] ]
  in
  Alcotest.(check bool) "empty store renders" true
    (Astring.String.is_infix ~affix:"no scrapes recorded" empty)

(* ---------- golden Prometheus export ----------

   The Prometheus text export of a fixed-seed star run is pinned
   byte-for-byte in test/golden/observe_star.prom.  A mismatch means the
   exporter's format or the simulation's accounting changed: if
   intentional, regenerate with
     OBS_GOLDEN_OUT=test/golden/observe_star.prom dune exec test/test_obs.exe
   and mention the format break in the changelog. *)

let golden_export () =
  let _, _, s = observed_scenario () in
  let registry = Registry.create () in
  let _ = Scenario.run_fixed ~registry s ~clients:8 ~warmup:1.0 ~duration:2.0 in
  Export.prometheus (Registry.snapshot registry)

let read_golden name =
  (* dune materializes the golden deps next to the test executable *)
  let path = Filename.concat (Filename.dirname Sys.executable_name) name in
  In_channel.with_open_bin path In_channel.input_all

let test_golden_prometheus () =
  let got = golden_export () in
  Alcotest.(check string) "byte-identical across runs" got (golden_export ());
  Alcotest.(check string) "matches golden file"
    (read_golden "golden/observe_star.prom") got

(* The Chrome trace-event JSON and utilization-heat DOT of the same
   fixed-seed star run, pinned byte-for-byte.  Regenerate with
     OBS_GOLDEN_TRACE_DIR=test/golden dune exec test/test_obs.exe *)

let golden_trace_exports () =
  let platform, tree, registry, store, _ = traced_run () in
  let wapp = Adept_workload.Dgemm.(mflops (make 200)) in
  let predicted =
    Adept.Evaluate.bottleneck_element params
      ~bandwidth:
        (Option.get (Adept_platform.Link.uniform_bandwidth (Platform.link platform)))
      ~wapp tree
  in
  let attribution =
    Attribution.build ~store ~tree ~utilization:(utilization_of registry)
      ~predicted ()
  in
  (Export.chrome_trace store, Attribution.heat_dot attribution ~tree)

let test_golden_trace_exports () =
  let chrome, dot = golden_trace_exports () in
  let chrome', dot' = golden_trace_exports () in
  Alcotest.(check string) "chrome byte-identical across runs" chrome chrome';
  Alcotest.(check string) "heat dot byte-identical across runs" dot dot';
  Alcotest.(check string) "chrome matches golden"
    (read_golden "golden/trace_star.json") chrome;
  Alcotest.(check string) "heat dot matches golden"
    (read_golden "golden/trace_star_heat.dot") dot

let () =
  match Sys.getenv_opt "OBS_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (golden_export ()));
      Printf.printf "regenerated %s\n" path;
      exit 0
  | None -> ()

let () =
  match Sys.getenv_opt "OBS_GOLDEN_TRACE_DIR" with
  | Some dir ->
      let chrome, dot = golden_trace_exports () in
      List.iter
        (fun (name, text) ->
          let path = Filename.concat dir name in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc text);
          Printf.printf "regenerated %s\n" path)
        [ ("trace_star.json", chrome); ("trace_star_heat.dot", dot) ];
      exit 0
  | None -> ()

let () =
  Alcotest.run "obs"
    [
      ( "label",
        [
          Alcotest.test_case "canonical" `Quick test_label_canonical;
          Alcotest.test_case "prometheus escaping" `Quick
            test_label_prometheus_escaping;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact stats" `Quick test_histogram_exact_stats;
          Alcotest.test_case "edge values" `Quick test_histogram_edge_values;
          Alcotest.test_case "merge alpha mismatch" `Quick
            test_histogram_merge_alpha_mismatch;
          Alcotest.test_case "merge empty identity" `Quick
            test_histogram_merge_empty_identity;
          Alcotest.test_case "bounded buckets" `Quick test_histogram_bounded_buckets;
        ] );
      ( "ring",
        [
          Alcotest.test_case "window exact" `Quick test_ring_window_exact;
          Alcotest.test_case "prunes and guards" `Quick test_ring_prunes_and_guards;
          Alcotest.test_case "retention boundary" `Quick
            test_ring_retention_boundary;
          Alcotest.test_case "find at-or-before" `Quick
            test_ring_find_at_or_before;
        ] );
      ( "registry",
        [ Alcotest.test_case "get-or-create" `Quick test_registry_get_or_create ] );
      ( "tracer",
        [ Alcotest.test_case "spans and bound" `Quick test_tracer_spans_and_bound ] );
      ( "export",
        [
          Alcotest.test_case "prometheus format" `Quick test_export_prometheus_format;
          Alcotest.test_case "jsonl and csv" `Quick test_export_jsonl_and_csv;
          Alcotest.test_case "deterministic" `Quick test_export_deterministic;
          Alcotest.test_case "prometheus escaping pinned" `Quick
            test_export_prometheus_escaping_pinned;
          Alcotest.test_case "alert timeline" `Quick test_export_alert_timeline;
        ] );
      ( "rule",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_rule_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_rule_parse_errors;
          Alcotest.test_case "selectors dedup" `Quick test_rule_selectors_dedup;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "scrape and eval" `Quick
            test_timeseries_scrape_and_eval;
          Alcotest.test_case "label subset and merge" `Quick
            test_timeseries_label_subset_and_merge;
        ] );
      ( "alert",
        [
          Alcotest.test_case "state machine" `Quick test_alert_state_machine;
          Alcotest.test_case "burn rate two windows" `Quick
            test_alert_burn_rate_two_windows;
          Alcotest.test_case "create validation" `Quick
            test_alert_create_validation;
        ] );
      ( "dashboard",
        [ Alcotest.test_case "structural" `Quick test_dashboard_structural ] );
      ( "run-stats",
        [
          Alcotest.test_case "bounded memory at 10^6" `Quick
            test_run_stats_bounded_memory;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "bit-identical with obs" `Quick
            test_scenario_obs_bit_identical;
          Alcotest.test_case "counters consistent" `Quick
            test_scenario_obs_counters_consistent;
          Alcotest.test_case "report low deviation" `Quick test_report_low_deviation;
        ] );
      ( "request-trace",
        [
          Alcotest.test_case "reservoir keeps true top-N" `Quick
            test_rtrace_reservoir_top_n;
          Alcotest.test_case "sampling deterministic" `Quick
            test_rtrace_sampling_deterministic;
          Alcotest.test_case "span overflow drops" `Quick
            test_rtrace_span_overflow_drops;
          Alcotest.test_case "critical path tiles" `Quick
            test_rtrace_critical_path_tiles;
          Alcotest.test_case "attribution matches model" `Quick
            test_rtrace_attribution_matches_model;
          Alcotest.test_case "observation-only" `Quick test_rtrace_observation_only;
        ] );
      ( "golden",
        [
          Alcotest.test_case "prometheus export" `Quick test_golden_prometheus;
          Alcotest.test_case "trace exports" `Quick test_golden_trace_exports;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_histogram_quantile_bound;
            prop_histogram_merge_is_concat;
            prop_histogram_merge_commutes;
            prop_critical_path_accounts_response;
          ] );
    ]
