(* Fast, socket-free checks of the benchmark's own arithmetic: request
   streams are a pure function of the seed, the Zipf key set loads the
   LRU as intended, and the tail and budget estimators compute what the
   README says they do. *)

open E2e
module P = Adept_serve.Protocol
module Rt = Adept_obs.Request_trace

let prefix_digest (w : Workload.t) ~seed =
  let next = w.Workload.make seed in
  let b = Buffer.create 65536 in
  for _ = 1 to 1000 do
    Buffer.add_string b (Workload.key (next ()));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned: a change here changes every workload's inputs, so the
   benchmark's baseline must be measured again. *)
let pinned =
  [
    ("hot", "860d734da6e2b6c1af70569dccf43fb4");
    ("cold", "a496e59b743ff611a83e767a5754ed83");
    ("mixed", "27436756ad958e3857d23486e44c63c7");
    ("large", "0c667b329fe236242bfca54d63ad0a44");
  ]

let test_streams () =
  List.iter
    (fun (w : Workload.t) ->
      let d = prefix_digest w ~seed:1 in
      Alcotest.(check string) (w.Workload.name ^ " is reproducible") d (prefix_digest w ~seed:1);
      Alcotest.(check string) (w.Workload.name ^ " is pinned") (List.assoc w.Workload.name pinned) d;
      if w.Workload.name <> "hot" then
        Alcotest.(check bool) (w.Workload.name ^ " depends on the seed") true
          (d <> prefix_digest w ~seed:2))
    Workload.all

let test_mixed_shape () =
  let next = Workload.mixed.Workload.make 7 in
  let plans = ref 0 and replans = ref 0 and observes = ref 0 in
  for _ = 1 to 10_000 do
    match next () with
    | P.Plan _ -> incr plans
    | P.Replan _ -> incr replans
    | P.Observe _ -> incr observes
    | _ -> Alcotest.fail "unexpected method"
  done;
  Alcotest.(check bool) "~96% plans" true (!plans > 9500 && !plans < 9700);
  Alcotest.(check bool) "~2% replans" true (!replans > 130 && !replans < 270);
  Alcotest.(check bool) "~2% observes" true (!observes > 130 && !observes < 270)

(* The mixed key set is 16x the server's default 128-entry LRU; the
   Zipf draw over it must hit that cache about two thirds of the time —
   between the all-hit [hot] and the all-miss [cold], and clear of one
   half, where the median would flip between hits and misses. *)
let test_zipf_lru () =
  let cdf = Workload.zipf ~n:Workload.mixed_keys ~s:Workload.mixed_zipf in
  let rng = Adept_util.Rng.create 11 in
  let cache = Adept_serve.Cache.create ~capacity:128 () in
  let entry = { Adept_serve.Cache.text = ""; rho = 0.0; nodes_used = 0 } in
  for _ = 1 to 50_000 do
    let digest = string_of_int (Workload.zipf_draw cdf rng) in
    match Adept_serve.Cache.find cache ~digest ~strategy:"h" ~wapp:1.0 ~demand:None with
    | Some _ -> ()
    | None -> Adept_serve.Cache.add cache ~digest ~strategy:"h" ~wapp:1.0 ~demand:None entry
  done;
  let ratio = Adept_serve.Cache.hit_ratio cache in
  Alcotest.(check bool) (Printf.sprintf "hit ratio %.3f in [0.60, 0.70]" ratio) true
    (ratio >= 0.60 && ratio <= 0.70)

let test_windowed_p99 () =
  let close = Alcotest.(check (float 1e-9)) in
  (* 3.5 s at 1 s windows: three windows, the last 0.5 s merged into the
     third.  Window k holds 100 samples valued k * 100 + 1 .. k * 100 +
     100, except the merged third, which also holds 1000.0. *)
  let samples =
    List.concat
      [
        List.init 100 (fun i -> (0.5, float_of_int (i + 1)));
        List.init 100 (fun i -> (1.5, float_of_int (101 + i)));
        List.init 100 (fun i -> (2.5, float_of_int (201 + i)));
        [ (3.2, 1000.0) ];
      ]
  in
  (* p99s: 99, 199, and 300 (the 100th of 101 values) -> median 199 *)
  close "median of window p99s" 199.0
    (Quantile.windowed ~p:0.99 ~t0:0.0 ~duration:3.5 ~window:1.0 samples);
  (* a phase shorter than one window is one window: the 298th of 301 *)
  close "single window" 298.0
    (Quantile.windowed ~p:0.99 ~t0:0.0 ~duration:3.5 ~window:40.0 samples);
  (* windows expect ten samples beyond the quantile *)
  close "p99 window at 5000/s" 0.2 (Quantile.window ~p:0.99 ~rate:5000.0);
  close "p90 window at 50/s" 2.0 (Quantile.window ~p:0.9 ~rate:50.0)

let test_quartiles () =
  (* statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q2, q3 = Quantile.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "python exclusive method" [ 2.75; 5.5; 8.25 ]
    [ q1; q2; q3 ]

let span id parent stage start stop =
  { Rt.sp_id = id; sp_parent = parent; sp_kind = Rt.Stage stage; sp_node = -1;
    sp_start = start; sp_stop = stop }

let test_budget () =
  (* a cache miss: read, parse, lookup, queue, replay, render, write *)
  let spans =
    [|
      span 0 (-1) Rt.Frame_read 1.0 2.0;
      span 1 0 Rt.Parse 2.0 3.0;
      span 2 1 Rt.Cache_lookup 4.0 5.0;
      span 3 2 Rt.Replay 7.0 10.0;
      span 4 3 Rt.Render_reply 10.0 11.0;
      span 5 4 Rt.Write_reply 12.0 13.0;
    |]
  in
  let parts = Budget.decompose ~due:0.0 ~sent:0.5 spans in
  Alcotest.(check (list (pair string (float 1e-12))))
    "stages and named gaps in causal order"
    [
      ("send_lag", 0.5); ("frame_read", 1.0); ("parse", 1.0); ("gap.dispatch", 1.0);
      ("cache_lookup", 1.0); ("gap.queue_wait", 2.0); ("replay", 3.0); ("render", 1.0);
      ("gap.reap_wait", 1.0); ("write", 1.0);
    ]
    parts;
  (* the budget closes: rows + unattributed = the median cohort's mean;
     latencies 14 .. 114 put p45 .. p55 at 59 .. 69, mean 64 = p50 *)
  let requests =
    List.init 101 (fun i ->
        let l = 14.0 +. float_of_int i in
        (l, Budget.decompose ~due:0.0 ~sent:0.5 spans))
  in
  let b = Budget.close requests in
  let sum = List.fold_left (fun acc r -> acc +. r.Budget.seconds) b.Budget.unattributed b.Budget.rows in
  Alcotest.(check int) "cohort is p45 .. p55" 11 b.Budget.cohort;
  Alcotest.(check (float 1e-9)) "total is the cohort mean" 64.0 b.Budget.total;
  Alcotest.(check (float 1e-9)) "p50" 64.0 b.Budget.p50;
  Alcotest.(check (float 1e-9)) "rows + unattributed = total" b.Budget.total sum;
  Alcotest.(check (float 1e-9)) "unattributed is what the chain misses" (64.0 -. 12.5)
    b.Budget.unattributed

let () =
  Alcotest.run "e2e"
    [
      ( "workloads",
        [
          Alcotest.test_case "seeded streams" `Quick test_streams;
          Alcotest.test_case "mixed method shares" `Quick test_mixed_shape;
          Alcotest.test_case "zipf on a 128-entry LRU" `Quick test_zipf_lru;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "windowed p99" `Quick test_windowed_p99;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "budget" `Quick test_budget;
        ] );
    ]
