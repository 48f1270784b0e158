(* The end-to-end benchmark of `adept serve`.

     main.exe --adept PATH [--workload hot|cold|mixed|large|all]
              [--seed N] [--seconds S] [--trace 0|1] [--repeat K]

   bench/e2e/run.sh builds the server and this program from the
   checkout and passes --adept.  [--trace 0] measures the end-to-end
   metrics with tracing off; [--trace 1] is the separate traced run that
   gives the per-layer numbers; without --trace both run, and without
   --workload every workload runs.  [--seconds] is the measured time of
   one run, split between its phases (warm-ups come on top).  With
   [--repeat K] each run is made K times and every metric's median and
   quartiles are printed, flagging spreads wider than the metric's bound
   in BENCHMARK.json.

   The last line is one JSON object (medians over the repeats) when a
   single workload and mode were asked for.  Exit status: 0 ok; 1 a
   reply failed the correctness gate; 2 the run is invalid (the
   generator ran late, the backlog kept growing, or a connection
   broke). *)

open E2e
module P = Adept_serve.Protocol
module Json = Adept_serve.Json

type metric = { name : string; unit_ : string; value : float }

type result = {
  metrics : metric list;  (** the JSON metrics, in order *)
  attempted : int;
  failed : int;
  mismatches : int;
  invalid : string list;  (** generator self-check failures *)
}

exception Invalid_run of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_run s)) fmt

(* No more connections than cores: the load must not need more
   parallelism than the machine has. *)
let connections = min 2 (Domain.recommended_domain_count ())

(* Closed-loop callers pipelined on each connection. *)
let depth = 4

let us = 1e6

(* ---------- scratch directory ---------- *)

let run_root = "bench/e2e/_run"
let run_dir = Filename.concat run_root (string_of_int (Unix.getpid ()))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- reply collection ---------- *)

type sample = { id : int; due : float; sent : float; done_ : float }

type collector = {
  check : Check.t;
  mutable measure_from : float;  (** open-loop requests due earlier are warm-up *)
  mutable measured : sample list;
  mutable failed : int;
}

let collector (w : Workload.t) =
  { check = Check.create ~prefix_len:w.Workload.replay; measure_from = infinity;
    measured = []; failed = 0 }

let on_reply c (r : Loadgen.reply) =
  let ok = Check.reply c.check ~index:r.Loadgen.r_index r.Loadgen.r_request r.Loadgen.r_response in
  let late = r.Loadgen.r_done -. r.Loadgen.r_due > Loadgen.reply_deadline in
  if (not ok) || late then c.failed <- c.failed + 1;
  if r.Loadgen.r_index >= 0 && r.Loadgen.r_due >= c.measure_from then
    c.measured <-
      { id = r.Loadgen.r_id; due = r.Loadgen.r_due; sent = r.Loadgen.r_sent;
        done_ = r.Loadgen.r_done }
      :: c.measured

(* ---------- phases ---------- *)

type phases = { warmup : float; open_s : float; closed_s : float }

let phases seconds =
  { warmup = Float.min 1.0 (0.1 *. seconds); open_s = 0.6 *. seconds;
    closed_s = 0.4 *. seconds }

type open_stats = {
  n : int;
  p50 : float;  (** percentiles: medians of per-window values *)
  p90 : float;
  p99 : float;
  p999 : float;  (** whole phase *)
  max_ : float;
  lag_p99 : float;
  own_lag_p99 : float;
  backlog_max : int;
  requests : int;  (** sent, warm-up included *)
}

let open_phase gen c (w : Workload.t) ~next_request ~warmup ~duration ~trace =
  let start = Unix.gettimeofday () +. 0.01 in
  c.measure_from <- start +. warmup;
  c.measured <- [];
  let res =
    Loadgen.run_open gen ~rate:w.Workload.rate ~start ~warmup ~duration ~trace
      ~next_request
  in
  c.failed <- c.failed + res.Loadgen.lost;
  let samples = c.measured in
  if samples = [] then invalid "%s: no open-loop replies were measured" w.Workload.name;
  let lat = Quantile.sorted_of_list (List.map (fun s -> s.done_ -. s.due) samples) in
  let lag = Quantile.sorted_of_list (List.map (fun s -> s.sent -. s.due) samples) in
  let timed = List.map (fun s -> (s.due, s.done_ -. s.due)) samples in
  let windowed p samples =
    Quantile.windowed ~p ~t0:(start +. warmup) ~duration
      ~window:(Quantile.window ~p ~rate:w.Workload.rate) samples
  in
  let stats =
    {
      n = Array.length lat;
      p50 = windowed 0.50 timed;
      p90 = windowed 0.90 timed;
      p99 = windowed 0.99 timed;
      p999 = Quantile.percentile lat 0.999;
      max_ = lat.(Array.length lat - 1);
      lag_p99 = Quantile.percentile lag 0.99;
      own_lag_p99 = windowed 0.99 res.Loadgen.own_lag;
      backlog_max = res.Loadgen.backlog_max;
      requests = res.Loadgen.sent;
    }
  in
  (* The numbers describe the server only if the generator kept its
     schedule and the server kept up with it.  The generator is judged
     on its own share of the send lag: the rest is the time the OS took
     to wake it, which on a small VM whose other cores the server keeps
     busy reaches a millisecond without the generator being loaded.
     That share is estimated like the latency tail, as the median of
     per-window p99s, so a host stall in one window does not void the
     run; and it may reach 5 % of the median latency when that is more
     than 1 ms, because decoding one 4000-node reply takes the generator
     about a millisecond, a small delay beside the 15-40 ms latencies of
     the requests it holds back.  The backlog fails the run when it
     grows steadily by more than 5 % of the requests due in the tail,
     which moves the median-based growth by half that. *)
  let lag_limit = Float.max 1e-3 (0.05 *. stats.p50) in
  let growth_limit = Float.max 5.0 (0.025 *. w.Workload.rate *. res.Loadgen.tail) in
  let problems =
    (if stats.own_lag_p99 > lag_limit then
       [ Printf.sprintf "generator's own send lag p99 %.0f us exceeds %.0f us"
           (stats.own_lag_p99 *. us) (lag_limit *. us) ]
     else [])
    @
    if res.Loadgen.backlog_growth > growth_limit then
      [ Printf.sprintf "median backlog grew by %.1f requests over the last %.1f s"
          res.Loadgen.backlog_growth res.Loadgen.tail ]
    else []
  in
  (stats, problems)

let print_open (o : open_stats) =
  Printf.printf
    "  open loop: n=%d  windowed p99 %.1f us  p99.9 %.1f us (%d beyond)  max %.1f us\n\
    \  generator: send lag p99 %.1f us (own %.1f us)  backlog max %d  connections %d\n"
    o.n (o.p99 *. us) (o.p999 *. us)
    (o.n - int_of_float (Float.ceil (0.999 *. float_of_int o.n)))
    (o.max_ *. us) (o.lag_p99 *. us) (o.own_lag_p99 *. us) o.backlog_max connections

let with_server ~adept ~tag args f =
  let server = Server_proc.spawn ~adept ~dir:run_dir ~tag args in
  Fun.protect
    ~finally:(fun () -> Server_proc.stop server)
    (fun () ->
      match Server_proc.ready server with
      | Error e -> invalid "%s" e
      | Ok _ -> f server)

let connect c (server : Server_proc.t) =
  Loadgen.connect ~connections ~on_reply:(on_reply c) server.Server_proc.socket

let verify c =
  let compared = Check.verify_prefix c.check in
  let m = c.check.Check.mismatches in
  Printf.printf "  correctness: %d distinct prefix request(s) compared with the batch path; \
                 %d mismatch(es), %d error reply(ies)\n"
    compared m c.check.Check.errors;
  Option.iter (Printf.printf "  first failure: %s\n") c.check.Check.first_mismatch;
  m

(* ---------- the untraced run: end-to-end metrics ---------- *)

let setup_starts = 15

let e2e ~adept (w : Workload.t) ~seed ~seconds =
  let p = phases seconds in
  let setup =
    List.init setup_starts (fun i ->
        match
          Server_proc.cold_start ~adept ~dir:run_dir ~tag:(Printf.sprintf "setup%d" i)
        with
        | Ok s -> s
        | Error e -> invalid "cold start: %s" e)
    |> Quantile.median_of_list
  in
  let c = collector w in
  let o, problems, closed =
    with_server ~adept ~tag:"e2e" [] (fun server ->
        let gen = connect c server in
        Fun.protect
          ~finally:(fun () -> Loadgen.close gen)
          (fun () ->
            (* the closed loop continues the open loop's stream *)
            let next_request = w.Workload.make seed in
            let o, problems =
              open_phase gen c w ~next_request ~warmup:p.warmup ~duration:p.open_s
                ~trace:false
            in
            let closed =
              Loadgen.run_closed gen ~depth ~start:(Unix.gettimeofday ()) ~warmup:p.warmup
                ~duration:p.closed_s ~next_request
            in
            c.failed <- c.failed + closed.Loadgen.c_lost;
            (o, problems, closed)))
  in
  let throughput = Quantile.median_of_list closed.Loadgen.rates in
  let attempted = o.requests + closed.Loadgen.c_sent in
  print_open o;
  Printf.printf "  closed loop: %d callers, %d replies in %.1f s\n" (connections * depth)
    closed.Loadgen.completed p.closed_s;
  Printf.printf "  error_rate: %.6f (%d of %d)\n"
    (float_of_int c.failed /. float_of_int attempted) c.failed attempted;
  let mismatches = verify c in
  {
    metrics =
      [
        { name = "setup_s"; unit_ = "s"; value = setup };
        { name = "latency_p50_us"; unit_ = "us"; value = o.p50 *. us };
        { name = "latency_p90_us"; unit_ = "us"; value = o.p90 *. us };
        { name = "throughput_rps"; unit_ = "req/s"; value = throughput };
      ];
    attempted;
    failed = c.failed;
    mismatches;
    invalid = problems;
  }

(* ---------- the traced run: per-layer metrics ---------- *)

let summary name xs =
  let a = Quantile.sorted_of_list xs in
  let n = Array.length a in
  Printf.printf "  %-34s p50 %12.3f  mean %12.3f  %s n=%d\n" name
    (Quantile.percentile a 0.5) (Quantile.mean_of_list xs)
    (if n >= 1000 then Printf.sprintf "p99 %12.3f " (Quantile.percentile a 0.99)
     else String.make 17 ' ')
    n

let print_budget (b : Budget.t) =
  Printf.printf
    "  budget of the median cohort (%d requests between the traced p45 and p55; \
     client p50 %.2f us):\n"
    b.Budget.cohort (b.Budget.p50 *. us);
  let row name v =
    Printf.printf "    %-22s %10.2f us  %5.1f %%\n" name (v *. us) (100.0 *. v /. b.Budget.total)
  in
  List.iter (fun r -> row r.Budget.name r.Budget.seconds) b.Budget.rows;
  row "unattributed" b.Budget.unattributed;
  row "total (cohort mean)" b.Budget.total

let traced ~adept (w : Workload.t) ~seed ~seconds =
  let p = phases seconds in
  let untraced_s = 0.4 *. seconds and traced_s = 0.6 *. seconds in
  let c = collector w in
  let run_phase server ~duration ~trace =
    let gen = connect c server in
    Fun.protect
      ~finally:(fun () -> Loadgen.close gen)
      (fun () ->
        open_phase gen c w ~next_request:(w.Workload.make seed) ~warmup:p.warmup
          ~duration ~trace)
  in
  let base, base_problems =
    with_server ~adept ~tag:"untraced" [] (fun server ->
        run_phase server ~duration:untraced_s ~trace:false)
  in
  let journal = Filename.concat run_dir "journal" in
  let o, problems, stats, measured =
    with_server ~adept ~tag:"traced"
      [ "--journal"; journal; "--trace-sample-rate"; "1";
        "--journal-segment-bytes"; string_of_int (64 * 1024 * 1024);
        "--journal-max-segments"; "64" ]
      (fun server ->
        let o, problems = run_phase server ~duration:traced_s ~trace:true in
        let measured = c.measured in
        match Server_proc.stats server with
        | Ok s -> (o, problems, s, measured)
        | Error e -> invalid "stats: %s" e)
  in
  let spans =
    match Layers.journal_spans journal with Ok t -> t | Error e -> invalid "journal: %s" e
  in
  let parts = Hashtbl.create 16 in
  let requests =
    List.filter_map
      (fun s ->
        Option.map
          (fun sp ->
            let ps = Budget.decompose ~due:s.due ~sent:s.sent sp in
            List.iter (fun (name, v) -> Layers.add parts name (v *. us)) ps;
            (s.done_ -. s.due, ps))
          (Hashtbl.find_opt spans s.id))
      measured
  in
  if requests = [] then invalid "%s: no traced request carried spans" w.Workload.name;
  let budget = Budget.close requests in
  let prefix =
    let next = w.Workload.make seed in
    List.init w.Workload.replay (fun _ -> next ())
  in
  let layers = Layers.replay prefix in
  let attempted = base.requests + o.requests in
  Printf.printf "  traced run: %d of %d measured requests joined to their spans\n"
    (List.length requests) (List.length measured);
  print_open o;
  print_budget budget;
  Printf.printf "  server stages and gaps, us (traced run):\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) parts []
  |> List.sort compare
  |> List.iter (fun (k, v) -> summary k v);
  Printf.printf "  in-process replay of the first %d requests:\n" w.Workload.replay;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []
  |> List.sort compare
  |> List.iter (fun (k, v) -> summary k v);
  Printf.printf "  server: gc pause p99 %.1f us (live stats, bucketed), domain busy %s\n"
    (Option.fold ~none:Float.nan ~some:(fun l -> l.P.gc_pause_p99 *. us) stats.P.live)
    (String.concat " " (List.map (Printf.sprintf "%.2f")
       (Option.fold ~none:[] ~some:(fun l -> l.P.domain_busy) stats.P.live)));
  let mismatches = verify c in
  let mean_of tbl name = Quantile.mean_of_list (Layers.get tbl name) in
  let lookups = stats.P.cache_hits + stats.P.cache_misses in
  let live = Option.get stats.P.live in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let m name unit_ value = { name; unit_; value } in
  {
    metrics =
      [
        m "trace.latency_p50_us" "us" (o.p50 *. us);
        m "trace.overhead_ratio" "ratio" (o.p50 /. base.p50);
        m "server.frame_read_us" "us" (mean_of parts "frame_read");
        m "protocol.parse_us" "us" (mean_of parts "parse");
        m "cache.lookup_us" "us" (mean_of parts "cache_lookup");
        m "server.write_us" "us" (mean_of parts "write");
        m "server.unattributed_us" "us" (budget.Budget.unattributed *. us);
        m "protocol.decode_request_us" "us" (mean_of layers "protocol.decode_request_us");
        m "protocol.encode_reply_us" "us" (mean_of layers "protocol.encode_reply_us");
        m "protocol.decode_reply_us" "us" (mean_of layers "protocol.decode_reply_us");
        m "protocol.request_bytes" "bytes" (mean_of layers "protocol.request_bytes");
        m "protocol.reply_bytes" "bytes" (mean_of layers "protocol.reply_bytes");
        m "generator.platform_us" "us" (mean_of layers "generator.platform_us");
        m "planner.plan_us" "us" (mean_of layers "planner.plan_us");
        m "planner.evaluations" "count" (mean_of layers "planner.evaluations");
        m "shard.plan_us" "us" (mean_of layers "shard.plan_us");
        m "shard.hint_us" "us" (mean_of layers "shard.hint_us");
        m "shard.replay_us" "us" (mean_of layers "shard.replay_us");
        m "shard.leftover_us" "us" (mean_of layers "shard.leftover_us");
        m "shard.speculated" "count" (mean_of layers "shard.speculated");
        m "shard.inline_probes" "count" (mean_of layers "shard.inline_probes");
        m "shard.memo_hit_ratio" "ratio" (mean_of layers "shard.memo_hit_ratio");
        m "render.text_us" "us" (mean_of layers "render.text_us");
        m "cache.hit_ratio" "ratio" (ratio stats.P.cache_hits lookups);
        m "cache.evictions" "count" (float_of_int stats.P.cache_evictions);
        m "cache.invalidations" "count" (float_of_int stats.P.cache_invalidations);
        m "server.coalesced" "ratio" (ratio stats.P.coalesced stats.P.cache_misses);
        m "domain_pool.busy_ratio" "ratio" (Quantile.mean_of_list live.P.domain_busy);
        m "runtime.minor_words_per_req" "words" (mean_of layers "runtime.minor_words_per_req");
        m "runtime.major_words_per_req" "words" (mean_of layers "runtime.major_words_per_req");
        m "client.send_lag_p99_us" "us" (o.lag_p99 *. us);
        m "client.backlog_max" "count" (float_of_int o.backlog_max);
      ];
    attempted;
    failed = c.failed;
    mismatches;
    invalid = base_problems @ problems;
  }

(* ---------- reporting ---------- *)

let print_metrics (r : result) =
  List.iter
    (fun mt -> Printf.printf "  %-30s %16.4f %s\n" mt.name mt.value mt.unit_)
    r.metrics

(* Bounds by metric name, from BENCHMARK.json beside the checkout root. *)
let bounds () =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.of_string text with
      | Error _ -> []
      | Ok j ->
          Option.bind (Json.member "end_to_end" j) Json.to_list
          |> Option.value ~default:[]
          |> List.filter_map (fun e ->
                 match
                   ( Option.bind (Json.member "name" e) Json.to_string_v,
                     Option.bind (Json.member "bound" e) Json.to_float )
                 with
                 | Some n, Some b -> Some (n, b)
                 | _ -> None))

(* One metric's value in each run. *)
let values (runs : result list) name =
  List.map (fun r -> (List.find (fun (x : metric) -> x.name = name) r.metrics).value) runs

let print_spread label (runs : result list) =
  let bounds = bounds () in
  Printf.printf "spread of %s over %d runs (median [q1, q3], (q3 - q1) / median):\n" label
    (List.length runs);
  List.iter
    (fun (mt : metric) ->
      let q1, q2, q3 = Quantile.quartiles (values runs mt.name) in
      let spread = if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2 in
      let verdict =
        match List.assoc_opt mt.name bounds with
        | None -> ""
        | Some b when spread > b -> Printf.sprintf "  WIDER THAN BOUND %.2f" b
        | Some b -> Printf.sprintf "  (bound %.2f)" b
      in
      Printf.printf "  %-30s %14.4f [%14.4f, %14.4f] %6.1f %%%s\n" mt.name q2 q1 q3
        (100.0 *. spread) verdict)
    (List.hd runs).metrics

let json_number v = Printf.sprintf "%.17g" v

let print_json (runs : result list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let metrics =
    List.map
      (fun (mt : metric) ->
        let v = Quantile.median_of_list (values runs mt.name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number v) mt.unit_)
      (List.hd runs).metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (sum (fun r -> r.mismatches) = 0)
    (sum (fun r -> r.attempted))
    (sum (fun r -> r.failed))
    (String.concat ", " metrics)

(* ---------- command line ---------- *)

let () =
  let adept = ref "" and workload = ref "all" and seed = ref 1 and seconds = ref 28
  and trace = ref "both" and repeat = ref 1 in
  Arg.parse
    [
      ("--adept", Arg.Set_string adept, "PATH the adept binary under test");
      ("--workload", Arg.Set_string workload, "NAME hot, cold, mixed, large or all");
      ("--seed", Arg.Set_int seed, "N seed of the request streams");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_string trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--repeat", Arg.Set_int repeat, "K runs per workload and mode");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --adept PATH [options]";
  let fail msg =
    flush stdout;
    prerr_endline ("e2e: " ^ msg);
    exit 2
  in
  if not (Sys.file_exists !adept) then fail "--adept must name the built adept binary";
  let workloads =
    if !workload = "all" then Workload.all
    else
      match Workload.find !workload with
      | Some w -> [ w ]
      | None -> fail ("unknown workload " ^ !workload)
  in
  let modes =
    match !trace with
    | "0" -> [ false ]
    | "1" -> [ true ]
    | "both" -> [ false; true ]
    | t -> fail ("--trace must be 0 or 1, not " ^ t)
  in
  if !seconds < 1 || !repeat < 1 then fail "--seconds and --repeat must be positive";
  (* A broken connection must surface as EPIPE, not kill the run; an
     interrupt unwinds through the finalisers that stop the servers. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise (Invalid_run "interrupted"))))
    [ Sys.sigint; Sys.sigterm ];
  let seconds = float_of_int !seconds in
  mkdir_p run_dir;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        try
          rm_rf run_dir;
          if Sys.readdir run_root = [||] then Sys.rmdir run_root
        with Sys_error _ | Unix.Unix_error _ -> ())
      (fun () ->
        try
          Ok
            (List.concat_map
               (fun (w : Workload.t) ->
                 List.map
                   (fun traced_mode ->
                     let label =
                       Printf.sprintf "%s (%s)" w.Workload.name
                         (if traced_mode then "traced, per-layer" else "untraced, end-to-end")
                     in
                     let runs =
                       List.init !repeat (fun k ->
                           Printf.printf "== %s, seed %d, %.0f s%s ==\n%!" label !seed seconds
                             (if !repeat > 1 then Printf.sprintf ", run %d/%d" (k + 1) !repeat
                              else "");
                           let r =
                             (if traced_mode then traced else e2e) ~adept:!adept w ~seed:!seed
                               ~seconds
                           in
                           print_metrics r;
                           List.iter (Printf.printf "  INVALID RUN: %s\n") r.invalid;
                           r)
                     in
                     if !repeat > 1 then print_spread label runs;
                     runs)
                   modes)
               workloads)
        with
        | Invalid_run msg -> Error msg
        | Loadgen.Transport msg -> Error ("connection failed: " ^ msg))
  in
  match outcome with
  | Error msg -> fail ("invalid run: " ^ msg)
  | Ok sets ->
      let all = List.concat sets in
      if List.exists (fun r -> r.invalid <> []) all then fail "invalid run (see above)";
      let bad =
        List.filter (fun (mt : metric) -> not (Float.is_finite mt.value))
          (List.concat_map (fun r -> r.metrics) all)
      in
      if bad <> [] then fail ("no measurement for " ^ (List.hd bad).name);
      if List.length sets = 1 then print_json (List.hd sets);
      if List.exists (fun r -> r.mismatches > 0) all then exit 1
