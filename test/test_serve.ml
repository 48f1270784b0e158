(* Tests for the planning service: JSON and protocol codec fixpoints,
   wire framing, the domain pool, the plan cache, sharded-planning
   equivalence, and a live server driven over a Unix socket — including
   the golden session transcript and the robustness cases (malformed
   frame, oversized prefix, unknown method, mid-request disconnect). *)

module Json = Adept_serve.Json
module Wire = Adept_serve.Wire
module Proto = Adept_serve.Protocol
module Pool = Adept_serve.Domain_pool
module Shard = Adept_serve.Shard
module Cache = Adept_serve.Cache
module Server = Adept_serve.Server
module Client = Adept_serve.Client
module Planner = Adept.Planner
module Demand = Adept_model.Demand
module Generator = Adept_platform.Generator
module Tree = Adept_hierarchy.Tree
module Rng = Adept_util.Rng

let params = Adept_model.Params.diet_lyon
let dgemm n = Adept_workload.Dgemm.(mflops (make n))

(* ---------- JSON ---------- *)

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)

let test_json_fixpoint () =
  (* values whose printed form reparses to the same constructor *)
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float (1.0 /. 3.0);
      Json.Float 1e-9;
      Json.Float 5e-324;
      Json.Float 1.7976931348623157e308;
      Json.String "";
      Json.String "plain";
      Json.String "quotes \" backslash \\ newline \n tab \t";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        ("fixpoint: " ^ Json.to_string j)
        true
        (roundtrip j = j))
    cases

let test_json_whole_floats () =
  (* %.17g prints whole floats without a point; readers must accept the
     Int that comes back *)
  Alcotest.(check string) "310.0 prints as int" "310" (Json.to_string (Json.Float 310.0));
  Alcotest.(check (option (float 0.0))) "Int reads as float" (Some 310.0)
    (Json.to_float (roundtrip (Json.Float 310.0)))

let test_json_rejects () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Error _ -> ()
  in
  bad "not json";
  bad "{} trailing";
  bad "[1,2";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad ""

let test_json_escapes () =
  (match Json.of_string "\"a\\u0041b\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "\\u escape" "aAb" s
  | _ -> Alcotest.fail "\\u0041 did not parse");
  (* control chars escape on the way out and survive the roundtrip *)
  Alcotest.(check bool) "control char roundtrip" true
    (roundtrip (Json.String "\x01\x02") = Json.String "\x01\x02")

(* ---------- protocol codecs ---------- *)

let syn8 =
  Proto.Synthetic
    { nodes = 8; power = 730.0; bandwidth = 1000.0; heterogeneous = false; seed = 42 }

let plan_syn8 =
  Proto.Plan
    { spec = syn8; dgemm = 310; demand = None; strategy = "heuristic"; use_cache = true }

let sample_envelopes =
  [
    { Proto.id = 1; trace = None; request = plan_syn8 };
    {
      Proto.id = 2;
      trace = None;
      request =
        Proto.Plan
          {
            spec =
              Proto.Synthetic
                { nodes = 3; power = 512.5; bandwidth = 100.0; heterogeneous = true; seed = 7 };
            dgemm = 1000;
            demand = Some 200.5;
            strategy = "star";
            use_cache = false;
          };
    };
    {
      Proto.id = 3;
      trace = None;
      request =
        Proto.Plan
          {
            spec = Proto.Catalog "node a 730.0\nnode \"b\" 100.0\n";
            dgemm = 310;
            demand = Some 0.1;
            strategy = "heuristic";
            use_cache = true;
          };
    };
    {
      Proto.id = 4;
      trace = None;
      request =
        Proto.Replan
          {
            r_spec = syn8;
            r_dgemm = 310;
            r_demand = None;
            r_strategy = "heuristic";
            r_failed = [ 1; 3; 5 ];
          };
    };
    {
      Proto.id = 5;
      trace = None;
      request =
        Proto.Observe
          {
            o_spec = syn8;
            o_dgemm = 310;
            o_demand = Some 50.25;
            o_strategy = "heuristic";
            o_seed = 9;
            o_clients = 40;
            o_warmup = 0.5;
            o_duration = 1.5;
          };
    };
    { Proto.id = 6; trace = None; request = Proto.Stats };
    (* trace context rides the envelope, orthogonal to the method *)
    { Proto.id = 7; trace = Some 1_000_007; request = plan_syn8 };
    { Proto.id = 8; trace = Some 0; request = Proto.Stats };
    { Proto.id = 9; trace = Some max_int; request = Proto.Trace_dump };
    { Proto.id = 10; trace = None; request = Proto.Trace_dump };
  ]

let test_request_fixpoint () =
  List.iter
    (fun e ->
      match Proto.decode_request (Proto.encode_request e) with
      | Proto.Request e' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d survives the codec" e.Proto.id)
            true (e' = e)
      | Proto.Bad (_, kind) ->
          Alcotest.fail (snd (Proto.error_kind_fields kind)))
    sample_envelopes

let sample_stats =
  {
    Proto.plan_requests = 3;
    replan_requests = 1;
    observe_requests = 1;
    stats_requests = 1;
    errors = 2;
    cache_hits = 1;
    cache_misses = 2;
    cache_evictions = 0;
    cache_invalidations = 1;
    coalesced = 4;
    workers = 1;
    shards = 2;
    live = None;
  }

let sample_live =
  {
    Proto.uptime_seconds = 12.5;
    latency_p50 = 0.0015;
    latency_p99 = 0.25;
    cache_hit_ratio = 0.75;
    gc_pause_p99 = 0.00012;
    domain_busy = [ 0.5; 0.25 ];
    traces_sampled = 17;
    firing_alerts = [ ("serve_latency_p99_high", "warning") ];
    connections = [];
  }

let sample_replies =
  [
    {
      Proto.reply_id = 1;
      response =
        Proto.Plan_ok
          { text = "tree\nwith \"quotes\"\n"; rho = 1234.5678901234567; nodes_used = 8; cached = false };
    };
    {
      Proto.reply_id = 2;
      response = Proto.Plan_ok { text = ""; rho = 0.1; nodes_used = 0; cached = true };
    };
    { Proto.reply_id = 3; response = Proto.Replan_ok { text = "t"; rho_after = 88.25 } };
    { Proto.reply_id = 4; response = Proto.Observe_ok { text = "o"; throughput = 310.0 } };
    { Proto.reply_id = 5; response = Proto.Stats_ok sample_stats };
    { Proto.reply_id = 0; response = Proto.Error Proto.Parse_error };
    { Proto.reply_id = 6; response = Proto.Error Proto.Invalid_request };
    { Proto.reply_id = 7; response = Proto.Error (Proto.Unknown_method "frobnicate") };
    { Proto.reply_id = 8; response = Proto.Error (Proto.Invalid_params "missing field \"failed\"") };
    { Proto.reply_id = 9; response = Proto.Error (Proto.Plan_failed "no feasible hierarchy") };
    {
      Proto.reply_id = 10;
      response = Proto.Trace_ok { chrome = "{\"traceEvents\":[]}" };
    };
    {
      Proto.reply_id = 11;
      response = Proto.Stats_ok { sample_stats with Proto.live = Some sample_live };
    };
    {
      Proto.reply_id = 12;
      response =
        Proto.Stats_ok
          {
            sample_stats with
            Proto.live = Some { sample_live with Proto.domain_busy = []; firing_alerts = [] };
          };
    };
    {
      Proto.reply_id = 13;
      response = Proto.Otlp_ok { otlp = "{\"resourceSpans\":[]}\n" };
    };
    {
      Proto.reply_id = 14;
      response =
        Proto.Stats_ok
          {
            sample_stats with
            Proto.live =
              Some
                {
                  sample_live with
                  Proto.connections =
                    [
                      { Proto.conn_id = 1; conn_requests = 3; conn_spans = 21;
                        conn_seconds = 0.125 };
                      { Proto.conn_id = 4; conn_requests = 1; conn_spans = 6;
                        conn_seconds = 0.5 };
                    ];
                };
          };
    };
  ]

let test_reply_fixpoint () =
  List.iter
    (fun r ->
      match Proto.decode_reply (Proto.encode_reply r) with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "reply %d survives the codec" r.Proto.reply_id)
            true (r' = r)
      | Error e -> Alcotest.fail e)
    sample_replies

let test_decode_bad_requests () =
  (match Proto.decode_request "not json" with
  | Proto.Bad (None, Proto.Parse_error) -> ()
  | _ -> Alcotest.fail "garbage should be Parse_error without an id");
  (match Proto.decode_request "[1,2,3]" with
  | Proto.Bad (None, Proto.Invalid_request) -> ()
  | _ -> Alcotest.fail "non-envelope JSON should be Invalid_request");
  (match Proto.decode_request "{\"method\":\"plan\",\"params\":{}}" with
  | Proto.Bad (None, Proto.Invalid_request) -> ()
  | _ -> Alcotest.fail "missing id should be Invalid_request");
  (match Proto.decode_request "{\"id\":7,\"method\":\"frobnicate\",\"params\":{}}" with
  | Proto.Bad (Some 7, Proto.Unknown_method "frobnicate") -> ()
  | _ -> Alcotest.fail "unknown method should echo the id");
  (match Proto.decode_request "{\"id\":8,\"method\":\"plan\",\"params\":{\"dgemm\":\"x\"}}" with
  | Proto.Bad (Some 8, Proto.Invalid_params _) -> ()
  | _ -> Alcotest.fail "mistyped field should be Invalid_params");
  match Proto.decode_request "{\"id\":9,\"method\":\"replan\",\"params\":{\"platform\":{\"synthetic\":{}}}}" with
  | Proto.Bad (Some 9, Proto.Invalid_params _) -> ()
  | _ -> Alcotest.fail "replan without failed list should be Invalid_params"

let test_decode_defaults_match_cli () =
  (* an empty params object decodes to exactly the CLI's defaults *)
  match Proto.decode_request "{\"id\":1,\"method\":\"plan\",\"params\":{\"platform\":{\"synthetic\":{}}}}" with
  | Proto.Request { request = Proto.Plan p; _ } ->
      Alcotest.(check bool) "defaults" true
        (p.Proto.spec
         = Proto.Synthetic
             { nodes = 50; power = 730.0; bandwidth = 1000.0; heterogeneous = false; seed = 42 }
        && p.Proto.dgemm = 310 && p.Proto.demand = None
        && p.Proto.strategy = "heuristic" && p.Proto.use_cache)
  | _ -> Alcotest.fail "defaulted plan request did not decode"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_trace_context_compat () =
  (* old client: no "trace" member at all ⇒ decodes, trace = None *)
  (match Proto.decode_request "{\"id\":1,\"method\":\"stats\",\"params\":{}}" with
  | Proto.Request { trace = None; request = Proto.Stats; _ } -> ()
  | _ -> Alcotest.fail "traceless request must decode with trace = None");
  (* a malformed trace member never rejects the request — the span is
     suppressed, the request is served *)
  (match
     Proto.decode_request "{\"id\":2,\"trace\":\"xyz\",\"method\":\"stats\",\"params\":{}}"
   with
  | Proto.Request { trace = None; request = Proto.Stats; _ } -> ()
  | _ -> Alcotest.fail "malformed trace must decode with trace = None");
  (match
     Proto.decode_request "{\"id\":3,\"trace\":null,\"method\":\"stats\",\"params\":{}}"
   with
  | Proto.Request { trace = None; request = Proto.Stats; _ } -> ()
  | _ -> Alcotest.fail "null trace must decode with trace = None");
  (* encoding trace = None emits no member an old server could see *)
  let untraced =
    Proto.encode_request { Proto.id = 4; trace = None; request = Proto.Stats }
  in
  Alcotest.(check bool) "no trace member when None" false
    (contains untraced "trace");
  let traced =
    Proto.encode_request { Proto.id = 4; trace = Some 9; request = Proto.Stats }
  in
  Alcotest.(check bool) "trace member when Some" true
    (contains traced "\"trace\":9")

let test_stats_live_absent_when_none () =
  (* live = None encodes byte-identically to the pre-observability
     stats object: no "live" member, nothing for an old client to
     choke on *)
  let encoded =
    Proto.encode_reply
      { Proto.reply_id = 1; response = Proto.Stats_ok sample_stats }
  in
  Alcotest.(check bool) "no live member" false (contains encoded "live")

(* Property: any envelope — traced or not, any method, any finite
   numeric params — survives encode/decode bit-exactly. *)
let prop_envelope_fixpoint =
  let open QCheck in
  let gen =
    Gen.(
      let spec =
        oneof
          [
            map2
              (fun n seed ->
                Proto.Synthetic
                  {
                    nodes = n;
                    power = float_of_int (100 + (seed mod 900)) +. 0.5;
                    bandwidth = 1000.0;
                    heterogeneous = n mod 2 = 0;
                    seed;
                  })
              (int_range 2 200) (int_range 0 10_000);
            map
              (fun s -> Proto.Catalog s)
              (string_size ~gen:(char_range 'a' 'z') (int_range 0 24));
          ]
      in
      let demand = opt (map (fun i -> float_of_int i /. 7.0) (int_range 1 10_000)) in
      let strategy = oneofl [ "heuristic"; "star"; "greedy" ] in
      let request =
        frequency
          [
            ( 4,
              let* spec = spec and* dgemm = int_range 1 5_000
              and* demand = demand and* strategy = strategy
              and* use_cache = bool in
              return (Proto.Plan { spec; dgemm; demand; strategy; use_cache })
            );
            ( 2,
              let* r_spec = spec and* r_dgemm = int_range 1 5_000
              and* r_demand = demand and* r_strategy = strategy
              and* r_failed = list_size (int_range 0 6) (int_range 0 199) in
              return
                (Proto.Replan { r_spec; r_dgemm; r_demand; r_strategy; r_failed })
            );
            ( 2,
              let* o_spec = spec and* o_dgemm = int_range 1 5_000
              and* o_demand = demand and* o_strategy = strategy
              and* o_seed = int_range 0 1_000 and* o_clients = int_range 1 100
              and* o_warmup = map (fun i -> float_of_int i /. 4.0) (int_range 0 8)
              and* o_duration = map (fun i -> float_of_int i /. 4.0) (int_range 1 8) in
              return
                (Proto.Observe
                   {
                     o_spec; o_dgemm; o_demand; o_strategy;
                     o_seed; o_clients; o_warmup; o_duration;
                   }));
            (1, return Proto.Stats);
            (1, return Proto.Trace_dump);
          ]
      in
      let* id = int_range 0 1_000_000
      and* trace = opt (int_range 0 max_int)
      and* request = request in
      return { Proto.id; trace; request })
  in
  QCheck.Test.make ~count:200 ~name:"envelope codec fixpoint" (QCheck.make gen)
    (fun e ->
      match Proto.decode_request (Proto.encode_request e) with
      | Proto.Request e' -> e' = e
      | Proto.Bad _ -> false)

let test_envelope_qcheck_fixpoint () =
  QCheck.Test.check_exn prop_envelope_fixpoint

let test_spec_digest () =
  Alcotest.(check string) "equal specs, equal digests"
    (Proto.spec_digest syn8) (Proto.spec_digest syn8);
  let other = Proto.Synthetic
      { nodes = 8; power = 730.0; bandwidth = 1000.0; heterogeneous = false; seed = 43 } in
  Alcotest.(check bool) "seed changes the digest" true
    (Proto.spec_digest syn8 <> Proto.spec_digest other);
  Alcotest.(check bool) "catalog digests differently" true
    (Proto.spec_digest syn8 <> Proto.spec_digest (Proto.Catalog "x"))

(* ---------- wire framing ---------- *)

let test_wire_roundtrip () =
  let r = Wire.reader () in
  let frame = Wire.encode "hello" in
  Wire.feed r frame 0 (String.length frame);
  (match Wire.step r with
  | Wire.Frame p -> Alcotest.(check string) "payload" "hello" p
  | _ -> Alcotest.fail "expected a frame");
  match Wire.step r with
  | Wire.Need_more -> ()
  | _ -> Alcotest.fail "buffer should be empty"

let test_wire_chunked () =
  let r = Wire.reader () in
  let frame = Wire.encode "chunked payload with some length" in
  String.iteri
    (fun i _ ->
      (match Wire.step r with
      | Wire.Need_more -> ()
      | _ -> Alcotest.fail "frame completed early");
      Wire.feed r frame i 1)
    frame;
  match Wire.step r with
  | Wire.Frame p -> Alcotest.(check string) "payload" "chunked payload with some length" p
  | _ -> Alcotest.fail "expected a frame after the last byte"

let test_wire_several_frames_one_feed () =
  let r = Wire.reader () in
  let chunk = Wire.encode "one" ^ Wire.encode "" ^ Wire.encode "three" in
  Wire.feed r chunk 0 (String.length chunk);
  let next () =
    match Wire.step r with
    | Wire.Frame p -> p
    | _ -> Alcotest.fail "expected a frame"
  in
  Alcotest.(check string) "first" "one" (next ());
  Alcotest.(check string) "second (empty payload)" "" (next ());
  Alcotest.(check string) "third" "three" (next ());
  match Wire.step r with Wire.Need_more -> () | _ -> Alcotest.fail "drained"

let oversized_header () =
  let b = Bytes.create Wire.header_len in
  Bytes.set_int32_be b 0 (Int32.of_int (Wire.max_frame + 1));
  Bytes.to_string b

let test_wire_oversized () =
  let r = Wire.reader () in
  let h = oversized_header () in
  Wire.feed r h 0 (String.length h);
  (match Wire.step r with
  | Wire.Oversized n -> Alcotest.(check int) "declared length" (Wire.max_frame + 1) n
  | _ -> Alcotest.fail "expected Oversized");
  match Wire.encode (String.make (Wire.max_frame + 1) 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode should reject oversized payloads"

(* ---------- domain pool ---------- *)

let test_pool_submit_await () =
  let pool = Pool.create ~workers:2 () in
  Alcotest.(check int) "size" 2 (Pool.size pool);
  let futures = List.init 100 (fun i -> Pool.submit pool (fun () -> i * i)) in
  List.iteri
    (fun i f -> Alcotest.(check int) "result" (i * i) (Pool.await f))
    futures;
  Pool.shutdown pool

let test_pool_nested_helping () =
  (* one worker: awaiting subtasks inside a task must help, not deadlock *)
  let pool = Pool.create ~workers:1 () in
  let f =
    Pool.submit pool (fun () ->
        let subs = List.init 4 (fun i -> Pool.submit pool (fun () -> i * 10)) in
        List.fold_left (fun acc s -> acc + Pool.await s) 0 subs)
  in
  Alcotest.(check int) "nested sum" 60 (Pool.await f);
  Pool.shutdown pool

let test_pool_exception_propagates () =
  let pool = Pool.create ~workers:1 () in
  let f = Pool.submit pool (fun () -> failwith "boom") in
  (match Pool.await f with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | _ -> Alcotest.fail "expected the task's exception");
  Pool.shutdown pool

let test_pool_on_resolve_after_resolution () =
  (* the wakeup contract the server's pipe depends on: when the hook
     fires the future must already read as resolved, and it must fire
     even when the task raises *)
  let pool = Pool.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let observed = Atomic.make (-1) in
      let rec settle n =
        if Atomic.get observed < 0 && n > 0 then (
          Unix.sleepf 0.01;
          settle (n - 1))
      in
      let run_one body expect_exn =
        Atomic.set observed (-1);
        let fut_ref = ref None in
        (* gate: the task may not finish before [fut_ref] is filled, or
           the hook could not inspect its own future *)
        let ready = Atomic.make false in
        let on_resolve () =
          Atomic.set observed
            (match !fut_ref with
            | Some f when Pool.is_resolved f -> 1
            | _ -> 0)
        in
        let fut =
          Pool.submit ~on_resolve pool (fun () ->
              while not (Atomic.get ready) do
                Domain.cpu_relax ()
              done;
              body ())
        in
        fut_ref := Some fut;
        Atomic.set ready true;
        (match Pool.await fut with
        | (_ : int) ->
            if expect_exn then Alcotest.fail "expected the task's exception"
        | exception Failure _ when expect_exn -> ());
        settle 200;
        Alcotest.(check int) "hook saw a resolved future" 1
          (Atomic.get observed)
      in
      run_one (fun () -> 7) false;
      (* a raising task must still fire the hook *)
      run_one (fun () -> failwith "boom") true)

let test_pool_shutdown_semantics () =
  let pool = Pool.create ~workers:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* post-shutdown work runs inline on the submitting domain *)
  let f = Pool.submit pool (fun () -> 7) in
  Alcotest.(check bool) "inline tasks resolve immediately" true (Pool.is_resolved f);
  Alcotest.(check int) "inline result" 7 (Pool.await f)

(* ---------- plan cache ---------- *)

let entry text = { Cache.text; rho = 100.0; nodes_used = 5 }

let test_cache_hit_miss () =
  let c = Cache.create () in
  Alcotest.(check (option reject)) "empty cache misses" None
    (Cache.find c ~digest:"d" ~strategy:"heuristic" ~wapp:310.0 ~demand:None);
  Cache.add c ~digest:"d" ~strategy:"heuristic" ~wapp:310.0 ~demand:None (entry "t");
  (match Cache.find c ~digest:"d" ~strategy:"heuristic" ~wapp:310.0 ~demand:None with
  | Some e -> Alcotest.(check string) "hit text" "t" e.Cache.text
  | None -> Alcotest.fail "expected a hit");
  (* exact floats only: a nearby wapp in the same 3-digit band still misses *)
  Alcotest.(check bool) "near-miss on wapp" true
    (Cache.find c ~digest:"d" ~strategy:"heuristic" ~wapp:310.0000001 ~demand:None = None);
  Alcotest.(check bool) "demand distinguishes" true
    (Cache.find c ~digest:"d" ~strategy:"heuristic" ~wapp:310.0 ~demand:(Some 200.0) = None);
  Alcotest.(check bool) "strategy distinguishes" true
    (Cache.find c ~digest:"d" ~strategy:"star" ~wapp:310.0 ~demand:None = None);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 4 (Cache.misses c);
  Alcotest.(check int) "size" 1 (Cache.size c)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "a");
  Cache.add c ~digest:"b" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "b");
  (* touch a so b is the least recently used *)
  ignore (Cache.find c ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None);
  Cache.add c ~digest:"c" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "c");
  Alcotest.(check int) "evictions" 1 (Cache.evictions c);
  Alcotest.(check int) "size stays at capacity" 2 (Cache.size c);
  Alcotest.(check bool) "b evicted" true
    (Cache.find c ~digest:"b" ~strategy:"h" ~wapp:1.0 ~demand:None = None);
  Alcotest.(check bool) "a survived" true
    (Cache.find c ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None <> None)

let test_cache_replace_same_key () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "old");
  Cache.add c ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "new");
  Alcotest.(check int) "no growth" 1 (Cache.size c);
  match Cache.find c ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None with
  | Some e -> Alcotest.(check string) "latest wins" "new" e.Cache.text
  | None -> Alcotest.fail "expected a hit"

let test_cache_invalidate_platform () =
  let c = Cache.create () in
  Cache.add c ~digest:"x" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "1");
  Cache.add c ~digest:"x" ~strategy:"h" ~wapp:2.0 ~demand:None (entry "2");
  Cache.add c ~digest:"y" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "3");
  Alcotest.(check int) "dropped both x entries" 2 (Cache.invalidate_platform c ~digest:"x");
  Alcotest.(check int) "invalidations" 2 (Cache.invalidations c);
  Alcotest.(check int) "y remains" 1 (Cache.size c);
  Alcotest.(check bool) "x gone" true
    (Cache.find c ~digest:"x" ~strategy:"h" ~wapp:1.0 ~demand:None = None);
  Alcotest.(check int) "nothing to drop twice" 0 (Cache.invalidate_platform c ~digest:"x")

(* ---------- sharded-planning equivalence ---------- *)

let plans_identical (a : Planner.plan) (b : Planner.plan) =
  Tree.equal a.Planner.tree b.Planner.tree
  && a.Planner.predicted_rho = b.Planner.predicted_rho
  && a.Planner.demand_met = b.Planner.demand_met
  && a.Planner.nodes_used = b.Planner.nodes_used
  && a.Planner.evaluations = b.Planner.evaluations

let prop_shard_equivalence pool =
  (* the service's load-bearing invariant: for any platform family,
     demand regime and shard count, the sharded plan is bit-identical to
     the sequential heuristic — same tree, same rho float, same probe
     count.  Speculation may miss; it must never change a decision. *)
  QCheck.Test.make ~count:25
    ~name:"sharded plan bit-identical to sequential heuristic"
    QCheck.(triple (int_range 0 10_000) (int_range 2 160) (int_range 1 4))
    (fun (seed, n, shards) ->
      let rng = Rng.create seed in
      let platform =
        match seed mod 3 with
        | 0 ->
            Generator.uniform_heterogeneous ~bandwidth:1000.0 ~rng ~n
              ~power_min:100.0 ~power_max:1000.0 ()
        | 1 -> Generator.grid5000_orsay ~rng ~n ()
        | _ -> Generator.homogeneous ~bandwidth:1000.0 ~n ~power:730.0 ()
      in
      let wapp = dgemm (100 + (seed mod 900)) in
      let demand =
        if seed mod 4 = 0 then Demand.rate (float_of_int ((seed mod 400) + 50))
        else Demand.unbounded
      in
      let sequential = Planner.run Planner.Heuristic params ~platform ~wapp ~demand in
      let sharded, _diag = Shard.plan ~shards ~pool params ~platform ~wapp ~demand in
      match (sequential, sharded) with
      | Ok a, Ok b -> plans_identical a b
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_shard_equivalence () =
  let pool = Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> QCheck.Test.check_exn (prop_shard_equivalence pool))

let test_shard_diag () =
  let pool = Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let platform = Generator.homogeneous ~bandwidth:1000.0 ~n:100 ~power:730.0 () in
      let result, diag =
        Shard.plan ~shards:4 ~pool params ~platform ~wapp:(dgemm 310)
          ~demand:Demand.unbounded
      in
      (match result with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Adept.Error.to_string e));
      Alcotest.(check int) "all four shards used" 4 diag.Shard.shards_used;
      Alcotest.(check bool) "hint from shard plans" true (diag.Shard.hint > 0.0);
      (* a tiny platform cannot shard: sequential fallback *)
      let small = Generator.homogeneous ~bandwidth:1000.0 ~n:3 ~power:730.0 () in
      let _, diag =
        Shard.plan ~shards:4 ~pool params ~platform:small ~wapp:(dgemm 310)
          ~demand:Demand.unbounded
      in
      Alcotest.(check int) "fallback reports one shard" 1 diag.Shard.shards_used;
      (* one shard gives no hint: nothing is speculated, the bisection
         runs every probe itself *)
      let result, diag =
        Shard.plan ~shards:1 ~pool params ~platform ~wapp:(dgemm 310)
          ~demand:Demand.unbounded
      in
      match result with
      | Error e -> Alcotest.fail (Adept.Error.to_string e)
      | Ok plan ->
          Alcotest.(check int) "one shard" 1 diag.Shard.shards_used;
          Alcotest.(check int) "nothing speculated" 0 diag.Shard.speculated;
          Alcotest.(check int) "every probe inline" plan.Adept.Planner.evaluations
            diag.Shard.inline_probes)

(* ---------- live server ---------- *)

let temp_socket_path () =
  let path = Filename.temp_file "adept-serve-test" ".sock" in
  Sys.remove path;
  path

(* The server runs in a child process, exactly like production
   (`adept serve` + `adept query`).  An in-process server thread is NOT
   an option on OCaml 5.1: with worker domains live, two systhreads of
   domain 0 parked in blocking sections (the serve loop's select plus
   the client's read) deadlock the runtime's stop-the-world handshake.
   Nor is [Unix.fork] — the pool and shard suites spawn domains first,
   and fork is forbidden once any domain was ever created.  So the test
   binary re-execs ITSELF via posix_spawn ([Unix.create_process_env]):
   when [server_socket_var] is set it becomes the server (see the hook
   below) instead of running the suites.  The child is drained with
   SIGTERM and must exit 0 — every test therefore also exercises
   graceful shutdown. *)
let server_socket_var = "ADEPT_SERVE_TEST_SOCKET"

(* When set, the child serves with observability on (value = shard
   count, so the traced suites can exercise the sharded stage spans).
   The golden-transcript child never sets it: the golden bytes pin the
   obs-off path. *)
let server_obs_var = "ADEPT_SERVE_TEST_OBS"
let server_access_var = "ADEPT_SERVE_TEST_ACCESS_LOG"
let server_prom_var = "ADEPT_SERVE_TEST_PROM"
let server_journal_var = "ADEPT_SERVE_TEST_JOURNAL"
let server_otlp_var = "ADEPT_SERVE_TEST_OTLP"

let run_as_server_child path =
  (* a SIGTERM racing server startup must still drain, hence the
     interim handler installed before [create]/[serve] *)
  let early_stop = ref false in
  let target = ref None in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle
       (fun _ ->
         match !target with
         | Some server -> Server.stop server
         | None -> early_stop := true));
  let addr = Server.Unix_socket path in
  let obs, shards =
    match Sys.getenv_opt server_obs_var with
    | None -> (None, 1)
    | Some v ->
        let shards =
          match int_of_string_opt v with Some n when n > 0 -> n | _ -> 1
        in
        ( Some
            {
              (Server.default_obs ()) with
              Server.scrape_interval = 0.05;
              trace_slowest = 8;
              access_log = Sys.getenv_opt server_access_var;
              prom_path = Sys.getenv_opt server_prom_var;
              journal_dir = Sys.getenv_opt server_journal_var;
              otlp =
                Option.map
                  (fun s -> Server.Otlp_file s)
                  (Sys.getenv_opt server_otlp_var);
            },
          shards )
  in
  let config =
    (* one worker, one shard: counters and replies must not depend on
       the machine's core count (the transcript is golden) *)
    {
      (Server.default_config addr) with
      Server.workers = Some 1;
      shards = Some shards;
      obs;
    }
  in
  exit
    (try
       let server = Server.create config in
       target := Some server;
       if !early_stop then Server.stop server;
       Server.serve server;
       0
     with _ -> 1)

let () =
  match Sys.getenv_opt server_socket_var with
  | Some path -> run_as_server_child path
  | None -> ()

let spawn_server_child ?(extra_env = []) () =
  let path = temp_socket_path () in
  let env =
    Array.append (Unix.environment ())
      (Array.of_list ((server_socket_var ^ "=" ^ path) :: extra_env))
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  (pid, Server.Unix_socket path)

let with_server ?extra_env f =
  let pid, addr = spawn_server_child ?extra_env () in
  let outcome =
    try Ok (f addr) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  match outcome with
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Ok v -> (
      match status with
      | Unix.WEXITED 0 -> v
      | Unix.WEXITED n -> Alcotest.fail (Printf.sprintf "server exited with %d" n)
      | Unix.WSIGNALED s ->
          Alcotest.fail (Printf.sprintf "server killed by signal %d" s)
      | Unix.WSTOPPED _ -> Alcotest.fail "server stopped")

let rec connect_raw ?(attempts = 200) addr =
  match addr with
  | Server.Tcp _ -> assert false
  | Server.Unix_socket path -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when attempts > 0 ->
          Unix.close fd;
          Unix.sleepf 0.02;
          connect_raw ~attempts:(attempts - 1) addr)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The golden session: typed requests plus raw bad frames on one
   connection.  Every exchange is deterministic — fixed spec, fixed
   simulation seed, single worker — so both directions of the dialogue
   can be pinned byte-for-byte. *)
let session_requests =
  [
    `Typed { Proto.id = 1; trace = None; request = plan_syn8 };
    `Typed { Proto.id = 2; trace = None; request = plan_syn8 };
    `Typed
      {
        Proto.id = 3;
        trace = None;
        request =
          Proto.Replan
            {
              r_spec = syn8;
              r_dgemm = 310;
              r_demand = None;
              r_strategy = "heuristic";
              r_failed = [ 1 ];
            };
      };
    `Typed { Proto.id = 4; trace = None; request = plan_syn8 };
    `Raw "{\"id\":7,\"method\":\"frobnicate\",\"params\":{}}";
    `Raw "this is not json";
    `Typed
      {
        Proto.id = 8;
        trace = None;
        request =
          Proto.Observe
            {
              o_spec = syn8;
              o_dgemm = 310;
              o_demand = None;
              o_strategy = "heuristic";
              o_seed = 42;
              o_clients = 10;
              o_warmup = 0.5;
              o_duration = 1.0;
            };
      };
    `Typed { Proto.id = 9; trace = None; request = Proto.Stats };
  ]

(* Returns the transcript (one JSON object per line, [c2s]/[s2c]) and
   the decoded replies in exchange order. *)
let run_session () =
  with_server (fun addr ->
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> close_quietly fd)
        (fun () ->
          let buf = Buffer.create 4096 in
          let line dir payload =
            Buffer.add_string buf
              (Json.to_string (Json.Obj [ (dir, Json.String payload) ]));
            Buffer.add_char buf '\n'
          in
          let replies =
            List.map
              (fun req ->
                let payload =
                  match req with
                  | `Typed e -> Proto.encode_request e
                  | `Raw s -> s
                in
                line "c2s" payload;
                Wire.write_frame fd payload;
                let reply = Wire.read_frame fd in
                line "s2c" reply;
                match Proto.decode_reply reply with
                | Ok r -> r
                | Error e -> Alcotest.fail ("undecodable reply: " ^ e))
              session_requests
          in
          (Buffer.contents buf, replies)))

let test_session_semantics () =
  let _, replies = run_session () in
  let nth i = (List.nth replies i).Proto.response in
  let id i = (List.nth replies i).Proto.reply_id in
  (* cold plan, cached repeat, invalidation by the replan, cold again *)
  (match (nth 0, nth 1, nth 3) with
  | Proto.Plan_ok a, Proto.Plan_ok b, Proto.Plan_ok c ->
      Alcotest.(check bool) "first plan is cold" false a.cached;
      Alcotest.(check bool) "second plan is cached" true b.cached;
      Alcotest.(check bool) "replan invalidated the cache" false c.cached;
      Alcotest.(check bool) "cached reply identical" true
        (a.text = b.text && a.rho = b.rho && a.nodes_used = b.nodes_used)
  | _ -> Alcotest.fail "expected three Plan_ok replies");
  (match nth 2 with
  | Proto.Replan_ok r -> Alcotest.(check bool) "replan rho" true (r.rho_after > 0.0)
  | _ -> Alcotest.fail "expected Replan_ok");
  (* bad frames answered with typed errors, connection still usable *)
  (match nth 4 with
  | Proto.Error (Proto.Unknown_method "frobnicate") ->
      Alcotest.(check int) "unknown method echoes the id" 7 (id 4)
  | _ -> Alcotest.fail "expected Unknown_method");
  (match nth 5 with
  | Proto.Error Proto.Parse_error ->
      Alcotest.(check int) "unparsable frame replies with id 0" 0 (id 5)
  | _ -> Alcotest.fail "expected Parse_error");
  (match nth 6 with
  | Proto.Observe_ok o -> Alcotest.(check bool) "throughput" true (o.throughput > 0.0)
  | _ -> Alcotest.fail "expected Observe_ok");
  match nth 7 with
  | Proto.Stats_ok s ->
      Alcotest.(check bool) "deterministic counters" true
        (s.Proto.plan_requests = 3 && s.Proto.replan_requests = 1
        && s.Proto.observe_requests = 1 && s.Proto.stats_requests = 1
        && s.Proto.errors = 2 && s.Proto.cache_hits = 1
        && s.Proto.cache_misses = 2 && s.Proto.cache_evictions = 0
        && s.Proto.cache_invalidations = 1 && s.Proto.coalesced = 0
        && s.Proto.workers = 1 && s.Proto.shards = 1)
  | _ -> Alcotest.fail "expected Stats_ok"

let read_golden name =
  In_channel.with_open_bin
    (Filename.concat (Filename.dirname Sys.executable_name) name)
    In_channel.input_all

let test_golden_transcript () =
  let got, _ = run_session () in
  Alcotest.(check string)
    "session transcript is byte-identical (SERVE_GOLDEN_OUT regenerates)"
    (read_golden "golden/serve_session.jsonl")
    got

let test_oversized_frame_closes_connection () =
  with_server (fun addr ->
      let fd = connect_raw addr in
      let h = oversized_header () in
      let n = Unix.write_substring fd h 0 (String.length h) in
      Alcotest.(check int) "header sent" (String.length h) n;
      (match Wire.read_frame fd with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "server should close on an oversized prefix");
      close_quietly fd;
      (* the server itself survived *)
      let c = Client.connect addr in
      (match Client.call c Proto.Stats with
      | Ok (Proto.Stats_ok s) ->
          Alcotest.(check int) "no request was dispatched" 0 s.Proto.plan_requests
      | Ok _ -> Alcotest.fail "expected Stats_ok"
      | Error e -> Alcotest.fail e);
      Client.close c)

let test_mid_request_disconnect () =
  with_server (fun addr ->
      let fd = connect_raw addr in
      (* header promising 50 bytes, then only 10, then a hard close *)
      let b = Bytes.create Wire.header_len in
      Bytes.set_int32_be b 0 50l;
      ignore (Unix.write fd b 0 Wire.header_len);
      ignore (Unix.write_substring fd "0123456789" 0 10);
      close_quietly fd;
      (* a second client is served as if nothing happened *)
      let c = Client.connect addr in
      (match Client.call c plan_syn8 with
      | Ok (Proto.Plan_ok p) ->
          Alcotest.(check bool) "planned" true (p.rho > 0.0 && not p.cached)
      | Ok (Proto.Error k) -> Alcotest.fail (snd (Proto.error_kind_fields k))
      | Ok _ -> Alcotest.fail "expected Plan_ok"
      | Error e -> Alcotest.fail e);
      Client.close c)

(* [Some status] once [pid] exits, [None] if it is still up after
   [timeout] seconds. *)
let wait_exit ~timeout pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf 0.001;
          go ()
        end
    | _, status -> Some status
  in
  go ()

let test_sigterm_drains_idle_server () =
  (* SIGTERM alone must drain an idle server: the connection that shows
     it is up stays open and silent, so nothing but the signal can wake
     the loop.  The lost wakeup this pins needs the signal to land while
     the server goes back to sleep after accepting that connection, so
     the delay between connect and signal sweeps 0-200 us (spun, since
     a sleep is coarser than the window). *)
  for cycle = 1 to 200 do
    let pid, addr = spawn_server_child () in
    let fd =
      try
        let fd = connect_raw addr in
        let until = Unix.gettimeofday () +. (float_of_int (cycle mod 50) *. 4e-6) in
        while Unix.gettimeofday () < until do () done;
        fd
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Printexc.raise_with_backtrace e bt
    in
    Unix.kill pid Sys.sigterm;
    let status = wait_exit ~timeout:1.0 pid in
    close_quietly fd;
    match status with
    | Some (Unix.WEXITED 0) -> ()
    | Some _ -> Alcotest.failf "cycle %d: server did not exit cleanly" cycle
    | None ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "cycle %d: server still up 1 s after SIGTERM" cycle
  done

let test_client_call_no_cache () =
  (* use_cache:false bypasses the cache in both directions *)
  with_server (fun addr ->
      let c =
        match Client.connect_retry addr with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      let cold =
        Proto.Plan
          { spec = syn8; dgemm = 310; demand = None; strategy = "heuristic"; use_cache = false }
      in
      (match (Client.call c cold, Client.call c cold) with
      | Ok (Proto.Plan_ok a), Ok (Proto.Plan_ok b) ->
          Alcotest.(check bool) "never cached" false (a.cached || b.cached);
          Alcotest.(check bool) "still deterministic" true
            (a.text = b.text && a.rho = b.rho)
      | _ -> Alcotest.fail "expected two Plan_ok replies");
      (match Client.call c Proto.Stats with
      | Ok (Proto.Stats_ok s) ->
          Alcotest.(check int) "cache untouched" 0 (s.Proto.cache_hits + s.Proto.cache_misses)
      | _ -> Alcotest.fail "expected Stats_ok");
      Client.close c)

(* ---------- wall-clock observability over the live server ---------- *)

let collect_raw_replies addr payloads =
  let fd = connect_raw addr in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      List.map
        (fun payload ->
          Wire.write_frame fd payload;
          Wire.read_frame fd)
        payloads)

let test_trace_dump_requires_obs () =
  with_server (fun addr ->
      let c =
        match Client.connect_retry addr with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      (match Client.call c Proto.Trace_dump with
      | Ok (Proto.Error (Proto.Invalid_params _)) -> ()
      | Ok _ -> Alcotest.fail "trace dump on an untraced server must error"
      | Error e -> Alcotest.fail e);
      (* the error is typed, not fatal: the connection still serves *)
      (match Client.call c Proto.Stats with
      | Ok (Proto.Stats_ok s) ->
          Alcotest.(check bool) "no live block without obs" true
            (s.Proto.live = None)
      | _ -> Alcotest.fail "expected Stats_ok");
      Client.close c)

let test_tracing_byte_identical () =
  (* the hard invariant of the whole observability layer: raw reply
     bytes are identical with tracing on (every request sampled) and
     off — for traced and untraced envelopes alike *)
  let payloads =
    List.map Proto.encode_request
      [
        { Proto.id = 1; trace = Some 101; request = plan_syn8 };
        { Proto.id = 2; trace = Some 102; request = plan_syn8 };
        {
          Proto.id = 3;
          trace = Some 103;
          request =
            Proto.Replan
              {
                r_spec = syn8;
                r_dgemm = 310;
                r_demand = None;
                r_strategy = "heuristic";
                r_failed = [ 1 ];
              };
        };
        { Proto.id = 4; trace = None; request = plan_syn8 };
        {
          Proto.id = 5;
          trace = Some 105;
          request =
            Proto.Observe
              {
                o_spec = syn8;
                o_dgemm = 310;
                o_demand = None;
                o_strategy = "heuristic";
                o_seed = 42;
                o_clients = 10;
                o_warmup = 0.5;
                o_duration = 1.0;
              };
        };
      ]
    @ [ "{\"id\":7,\"method\":\"frobnicate\",\"params\":{}}" ]
  in
  let plain = with_server (fun addr -> collect_raw_replies addr payloads) in
  let traced =
    with_server
      ~extra_env:[ server_obs_var ^ "=1" ]
      (fun addr -> collect_raw_replies addr payloads)
  in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "reply %d byte-identical with tracing on" i)
        a b)
    (List.combine plain traced)

let test_trace_dump_spans () =
  with_server
    ~extra_env:[ server_obs_var ^ "=2" ]
    (fun addr ->
      let c =
        match Client.connect_retry ~trace_base:1_000 addr with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      (* a cold sharded plan, a cache hit, then the dump *)
      (match Client.call c plan_syn8 with
      | Ok (Proto.Plan_ok p) ->
          Alcotest.(check bool) "cold" false p.cached
      | _ -> Alcotest.fail "expected Plan_ok");
      (match Client.call c plan_syn8 with
      | Ok (Proto.Plan_ok p) -> Alcotest.(check bool) "hit" true p.cached
      | _ -> Alcotest.fail "expected Plan_ok");
      (match Client.call c Proto.Trace_dump with
      | Ok (Proto.Trace_ok { chrome }) ->
          (match Json.of_string chrome with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("chrome trace is not JSON: " ^ e));
          List.iter
            (fun span ->
              Alcotest.(check bool) ("dump has " ^ span) true
                (contains chrome ("\"" ^ span ^ "\"")))
            [
              "serve.frame_read"; "serve.parse"; "serve.cache_lookup";
              "serve.shard_plan"; "serve.replay"; "serve.render";
              "serve.write";
            ]
      | Ok _ -> Alcotest.fail "expected Trace_ok"
      | Error e -> Alcotest.fail e);
      (* live stats report the sampled traces *)
      (match Client.call c Proto.Stats with
      | Ok (Proto.Stats_ok { live = Some l; _ }) ->
          Alcotest.(check bool) "traces sampled" true (l.Proto.traces_sampled >= 2);
          Alcotest.(check bool) "uptime moves" true (l.Proto.uptime_seconds >= 0.0);
          Alcotest.(check bool) "hit ratio in range" true
            (l.Proto.cache_hit_ratio >= 0.0 && l.Proto.cache_hit_ratio <= 1.0)
      | Ok (Proto.Stats_ok { live = None; _ }) ->
          Alcotest.fail "obs server must report live stats"
      | _ -> Alcotest.fail "expected Stats_ok");
      Client.close c)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let test_access_log () =
  let log = Filename.temp_file "adept-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_server
        ~extra_env:
          [ server_obs_var ^ "=1"; server_access_var ^ "=" ^ log ]
        (fun addr ->
          let c =
            match Client.connect_retry ~trace_base:500 addr with
            | Ok c -> c
            | Error e -> Alcotest.fail e
          in
          ignore (Client.call c plan_syn8);
          ignore (Client.call c plan_syn8);
          ignore (Client.call c Proto.Stats);
          Client.close c);
      let lines =
        read_all log |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per request" 3 (List.length lines);
      let objs =
        List.map
          (fun l ->
            match Json.of_string l with
            | Ok (Json.Obj o) -> o
            | _ -> Alcotest.fail ("access log line is not an object: " ^ l))
          lines
      in
      let str o k = Option.bind (List.assoc_opt k o) Json.to_string_v in
      let methods = List.filter_map (fun o -> str o "method") objs in
      Alcotest.(check (list string)) "methods in order"
        [ "plan"; "plan"; "stats" ] methods;
      List.iter
        (fun o ->
          Alcotest.(check bool) "status ok" true (str o "status" = Some "ok");
          Alcotest.(check bool) "trace id present" true
            (match List.assoc_opt "trace" o with
            | Some (Json.Int _) -> true
            | _ -> false);
          Alcotest.(check bool) "duration present" true
            (match Option.bind (List.assoc_opt "duration" o) Json.to_float with
            | Some d -> d >= 0.0
            | None -> false))
        objs;
      (* cold plan misses, repeat hits *)
      Alcotest.(check (list (option string))) "cache column"
        [ Some "miss"; Some "hit"; None ]
        (List.map (fun o -> str o "cache") objs))

let test_prom_snapshot () =
  let prom = Filename.temp_file "adept-prom" ".prom" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove prom with Sys_error _ -> ())
    (fun () ->
      with_server
        ~extra_env:[ server_obs_var ^ "=1"; server_prom_var ^ "=" ^ prom ]
        (fun addr ->
          let c =
            match Client.connect_retry ~trace_base:0 addr with
            | Ok c -> c
            | Error e -> Alcotest.fail e
          in
          ignore (Client.call c plan_syn8);
          ignore (Client.call c plan_syn8);
          ignore (Client.call c Proto.Stats);
          Client.close c);
      (* teardown rewrites the snapshot unconditionally *)
      let text = read_all prom in
      List.iter
        (fun metric ->
          Alcotest.(check bool) ("HELP for " ^ metric) true
            (contains text ("# HELP " ^ metric)))
        [
          "adept_serve_requests_total"; "adept_serve_request_seconds";
          "adept_serve_cache_hits_total"; "adept_serve_cache_misses_total";
          "adept_serve_cache_hit_ratio"; "adept_serve_inflight_requests";
          "adept_serve_traces_sampled_total"; "adept_serve_scrapes_total";
          "adept_runtime_gc_pause_seconds"; "adept_runtime_events_total";
        ])

let test_address_parsing () =
  (match Server.address_of_string "unix:/tmp/x.sock" with
  | Ok (Server.Unix_socket "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix: prefix");
  (match Server.address_of_string "tcp:localhost:9090" with
  | Ok (Server.Tcp ("localhost", 9090)) -> ()
  | _ -> Alcotest.fail "tcp:host:port");
  (match Server.address_of_string "plain.sock" with
  | Ok (Server.Unix_socket "plain.sock") -> ()
  | _ -> Alcotest.fail "bare path is a unix socket");
  (match Server.address_of_string "tcp:nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tcp without a port must be rejected");
  List.iter
    (fun s ->
      match Server.address_of_string s with
      | Ok a -> Alcotest.(check string) ("roundtrip " ^ s) s (Server.address_to_string a)
      | Error e -> Alcotest.fail e)
    [ "unix:/tmp/x.sock"; "tcp:localhost:9090" ]

(* ---------- observability units ---------- *)

module Obs = Adept_obs
module Prof = Adept_serve.Prof
module Rtm = Adept_serve.Runtime_metrics
module Rt = Adept_obs.Request_trace
module Clock = Adept_obs.Clock

let test_clock_sources () =
  let m = Clock.manual ~start:5.0 () in
  Alcotest.(check (float 0.0)) "manual start" 5.0 (Clock.now m);
  Clock.advance m 2.5;
  Alcotest.(check (float 0.0)) "manual advance" 7.5 (Clock.now m);
  (match Clock.advance m (-1.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative advance must raise");
  Alcotest.(check bool) "manual is manual" true (Clock.is_manual m);
  (* a stepped system clock can never move a source clock backwards *)
  let readings = ref [ 10.0; 20.0; 15.0; 30.0 ] in
  let read () =
    match !readings with [] -> 99.0 | r :: tl -> readings := tl; r
  in
  let s = Clock.source read in
  Alcotest.(check bool) "source is not manual" false (Clock.is_manual s);
  let seen = List.init 4 (fun _ -> Clock.now s) in
  Alcotest.(check (list (float 0.0))) "clamped monotone"
    [ 10.0; 20.0; 20.0; 30.0 ] seen;
  (* [raw] hands out the unclamped reader (safe on worker domains) *)
  let vals = ref [ 5.0; 2.0 ] in
  let s2 = Clock.source (fun () -> match !vals with [] -> 0.0 | v :: tl -> vals := tl; v) in
  let raw = Clock.raw s2 in
  Alcotest.(check (float 0.0)) "raw first" 5.0 (raw ());
  Alcotest.(check (float 0.0)) "raw is unclamped" 2.0 (raw ())

let test_trace_sampling_deterministic () =
  (* head sampling is a pure function of the trace id: two stores with
     the same rate agree on every id, and no RNG state is consulted *)
  let a = Rt.create ~sample_rate:0.35 () in
  let b = Rt.create ~sample_rate:0.35 () in
  let ids = List.init 400 (fun i -> 7919 * (i + 1)) in
  let da = List.map (Rt.would_sample a) ids in
  let db = List.map (Rt.would_sample b) ids in
  Alcotest.(check bool) "identical decisions" true (da = db);
  Alcotest.(check bool) "some sampled" true (List.mem true da);
  Alcotest.(check bool) "some skipped" true (List.mem false da);
  List.iter
    (fun id ->
      match Rt.begin_with_id b ~id ~now:0.0 with
      | Some h ->
          Alcotest.(check bool) "handle carries the wire id" true
            (Rt.trace_id h = id);
          Alcotest.(check bool) "begin agrees with would_sample" true
            (Rt.would_sample a id);
          Rt.abandon b h
      | None ->
          Alcotest.(check bool) "skip agrees with would_sample" false
            (Rt.would_sample a id))
    ids;
  let always = Rt.create ~sample_rate:1.0 () in
  let never = Rt.create ~sample_rate:0.0 () in
  Alcotest.(check bool) "rate 1 samples all" true
    (List.for_all (Rt.would_sample always) ids);
  Alcotest.(check bool) "rate 0 samples none" true
    (List.for_all (fun id -> not (Rt.would_sample never id)) ids)

let test_prof_samples () =
  let t = ref 0.0 in
  let now () =
    let v = !t in
    t := v +. 1.0;
    v
  in
  let p = Prof.create ~now in
  Alcotest.(check int) "None is a free no-op" 3
    (Prof.time None ~stage:"x" (fun () -> 3));
  Alcotest.(check int) "result passes through" 7
    (Prof.time (Some p) ~stage:"shard" ~shard:2 (fun () -> 7));
  (match Prof.time (Some p) ~stage:"replay" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the thunk's exception must propagate");
  match Prof.samples p with
  | [ s1; s2 ] ->
      Alcotest.(check string) "stage 1" "shard" s1.Prof.ps_stage;
      Alcotest.(check int) "shard index" 2 s1.Prof.ps_shard;
      Alcotest.(check (float 0.0)) "start 1" 0.0 s1.Prof.ps_start;
      Alcotest.(check (float 0.0)) "stop 1" 1.0 s1.Prof.ps_stop;
      Alcotest.(check string) "stage 2 recorded despite the raise" "replay"
        s2.Prof.ps_stage;
      Alcotest.(check int) "no shard" (-1) s2.Prof.ps_shard
  | l -> Alcotest.fail (Printf.sprintf "expected 2 samples, got %d" (List.length l))

let test_cache_eviction_age () =
  let ages = ref [] in
  let c = Cache.create ~capacity:1 ~on_evict:(fun ~age -> ages := age :: !ages) () in
  Cache.add c ~now:10.0 ~digest:"a" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "a");
  Cache.add c ~now:25.5 ~digest:"b" ~strategy:"h" ~wapp:1.0 ~demand:None (entry "b");
  Alcotest.(check (list (float 1e-9))) "age = insertion to eviction" [ 15.5 ] !ages;
  Alcotest.(check (float 1e-9)) "no lookups yet" 0.0 (Cache.hit_ratio c);
  ignore (Cache.find c ~digest:"b" ~strategy:"h" ~wapp:1.0 ~demand:None);
  ignore (Cache.find c ~digest:"z" ~strategy:"h" ~wapp:1.0 ~demand:None);
  Alcotest.(check (float 1e-9)) "one hit, one miss" 0.5 (Cache.hit_ratio c)

let test_pool_busy_seconds () =
  let pool = Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "one cell per worker" 2
        (Array.length (Pool.busy_seconds pool));
      (* poll rather than await: await helps, and a helped task runs on
         this domain — the point here is the WORKER's accounting *)
      let f = Pool.submit pool (fun () -> Unix.sleepf 0.05) in
      let rec settle n =
        if (not (Pool.is_resolved f)) && n > 0 then begin
          Unix.sleepf 0.01;
          settle (n - 1)
        end
      in
      settle 200;
      Pool.await f;
      let total = Array.fold_left ( +. ) 0.0 (Pool.busy_seconds pool) in
      Alcotest.(check bool) "busy time accrued" true (total >= 0.04);
      let again = Array.fold_left ( +. ) 0.0 (Pool.busy_seconds pool) in
      Alcotest.(check bool) "monotone" true (again >= total))

let test_runtime_metrics () =
  let reg = Obs.Registry.create () in
  match Rtm.start ~registry:reg () with
  | Error e -> Alcotest.fail ("runtime events unavailable: " ^ e)
  | Ok rm ->
      (* the full pause metric set exists before any collection *)
      (match Obs.Registry.find reg "adept_runtime_gc_pause_seconds" with
      | Some fam ->
          Alcotest.(check int) "one series per pause phase"
            (List.length Rtm.pause_phases)
            (List.length fam.Obs.Registry.series)
      | None -> Alcotest.fail "pause histogram not pre-registered");
      (* allocate hard so minor collections certainly happen *)
      let junk = ref [] in
      for i = 0 to 500 do
        junk := Array.make 10_000 (float_of_int i) :: !junk;
        if i mod 50 = 0 then junk := []
      done;
      Gc.full_major ();
      let drained = ref 0 in
      for _ = 1 to 10 do
        drained := !drained + Rtm.poll rm
      done;
      Alcotest.(check bool) "events drained" true (!drained > 0);
      (match Obs.Registry.find reg "adept_runtime_gc_pause_seconds" with
      | Some fam ->
          let pauses =
            List.fold_left
              (fun acc (_, v) ->
                match v with
                | Obs.Registry.Histogram s -> acc + Obs.Histogram.count s
                | _ -> acc)
              0 fam.Obs.Registry.series
          in
          Alcotest.(check bool) "non-zero gc pauses recorded" true (pauses > 0)
      | None -> Alcotest.fail "pause histogram vanished");
      match Obs.Registry.find reg "adept_runtime_events_total" with
      | Some _ -> ()
      | None -> Alcotest.fail "event counter missing"

(* ---------- alert timeline (golden) ---------- *)

(* The serve rule set over a manual clock: a forced cache-hit-ratio
   collapse arms, fires after its for-window, and resolves on
   recovery, while the healthy rules stay silent throughout.  Every
   input is a fixed float, so the exported timeline is golden. *)
let alert_timeline () =
  let rules = Server.default_rules () in
  let ts =
    Obs.Timeseries.create ~retention:300.0
      (List.concat_map Obs.Rule.selectors rules)
  in
  let alerts =
    match Obs.Alert.create ~timeseries:ts rules with
    | Ok a -> a
    | Error e -> failwith e
  in
  let reg = Obs.Registry.create () in
  let latency = Obs.Registry.histogram reg Obs.Semconv.serve_request_seconds in
  let inflight = Obs.Registry.gauge reg Obs.Semconv.serve_inflight_requests in
  let hit_ratio = Obs.Registry.gauge reg Obs.Semconv.serve_cache_hit_ratio in
  let misses = Obs.Registry.counter reg Obs.Semconv.serve_cache_misses_total in
  Obs.Gauge.set inflight 2.0;
  for sec = 0 to 30 do
    let now = float_of_int sec in
    Obs.Histogram.record latency 0.01;
    Obs.Counter.inc misses;
    Obs.Gauge.set hit_ratio (if sec >= 10 && sec < 25 then 0.2 else 0.9);
    Obs.Timeseries.scrape ts ~registry:reg ~now;
    Obs.Alert.eval alerts ~now
  done;
  (alerts, Obs.Export.alert_timeline_jsonl alerts)

let test_alert_timeline_golden () =
  let alerts, got = alert_timeline () in
  (* semantics first: exactly one rule ran the full life cycle *)
  let names =
    List.filter_map
      (fun (tr : Obs.Alert.transition) ->
        Some tr.Obs.Alert.rule.Obs.Rule.name)
      (Obs.Alert.transitions alerts)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "only the hit-ratio rule transitioned"
    [ "serve_cache_hit_ratio_low" ] names;
  Alcotest.(check (list string)) "nothing still firing" []
    (Obs.Alert.firing_names alerts);
  Alcotest.(check string)
    "alert timeline is byte-identical (SERVE_ALERTS_GOLDEN_OUT regenerates)"
    (read_golden "golden/serve_alerts.jsonl")
    got

(* ---------- clock edges ---------- *)

let test_clock_edges () =
  (* zero advance is a no-op (the guard rejects strictly-negative) *)
  let m = Clock.manual ~start:3.0 () in
  Clock.advance m 0.0;
  Alcotest.(check (float 0.0)) "zero advance is a no-op" 3.0 (Clock.now m);
  (match Clock.advance m Float.nan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "NaN advance must raise");
  (match Clock.advance m neg_infinity with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "-inf advance must raise");
  Alcotest.(check (float 0.0)) "rejected advances left time alone" 3.0
    (Clock.now m);
  Clock.set m 3.0;
  Alcotest.(check (float 0.0)) "set to the current instant is allowed" 3.0
    (Clock.now m);
  (match Clock.set m 2.9 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "backwards set must raise");
  (* the clamp holds across interleaved raw reads: [raw] bypasses (and
     never disturbs) the monotonic clamp state *)
  let vals = ref [ 10.0; 8.0; 12.0; 11.0; 13.0; Float.nan ] in
  let read () = match !vals with [] -> 99.0 | v :: tl -> vals := tl; v in
  let s = Clock.source read in
  let raw = Clock.raw s in
  Alcotest.(check (float 0.0)) "now 1" 10.0 (Clock.now s);
  Alcotest.(check (float 0.0)) "raw jitters backwards" 8.0 (raw ());
  Alcotest.(check (float 0.0)) "now unaffected by raw jitter" 12.0
    (Clock.now s);
  Alcotest.(check (float 0.0)) "raw again" 11.0 (raw ());
  Alcotest.(check (float 0.0)) "now keeps climbing" 13.0 (Clock.now s);
  Alcotest.(check (float 0.0)) "a NaN reading never moves the clamp" 13.0
    (Clock.now s)

(* ---------- flight-recorder journal ---------- *)

let temp_dir () =
  let path = Filename.temp_file "adept-journal" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

module Journal = Obs.Journal

let sample_span i =
  {
    Rt.sp_id = i;
    sp_parent = i - 1;
    sp_kind = (if i = 0 then Rt.Stage Rt.Frame_read else Rt.Stage Rt.Parse);
    sp_node = -1;
    sp_start = float_of_int i;
    sp_stop = float_of_int i +. 0.5;
  }

let sample_records =
  [
    Journal.Meta
      {
        m_at = 1.0;
        m_sample_rate = 0.5;
        m_max_traces = 8;
        m_max_spans = 64;
        m_scrape_interval = 0.25;
        m_retention = 300.0;
        m_workers = 2;
        m_shards = 4;
      };
    Journal.Begin_request { b_at = 1.5; b_trace = 42; b_sampled = true };
    Journal.Begin_request { b_at = 1.6; b_trace = 43; b_sampled = false };
    Journal.Finish
      {
        f_at = 2.0;
        f_trace = 42;
        f_issued = 1.5;
        f_conn = 3;
        f_spans = Some (Array.init 3 sample_span);
        f_dropped_spans = 0;
      };
    Journal.Finish
      {
        f_at = 2.1;
        f_trace = 44;
        f_issued = 1.9;
        f_conn = 3;
        f_spans = None;
        f_dropped_spans = 7;
      };
    Journal.Scrape
      {
        j_at = 2.5;
        j_uptime = 1.5;
        j_plans = 10;
        j_replans = 1;
        j_observes = 0;
        j_stats = 2;
        j_errors = 1;
        j_coalesced = 3;
        j_cache_hits = 4;
        j_cache_misses = 6;
        j_cache_evictions = 1;
        j_cache_invalidations = 0;
        j_inflight = 2;
        j_latency_p50 = 0.001;
        j_latency_p99 = 0.125;
        j_hit_ratio = 0.4;
        j_gc_pause_p99 = 0.0002;
        j_traces_sampled = 5;
        j_busy = [ 0.25; 1.0 ];
      };
    Journal.Alert_edge
      {
        a_at = 2.6;
        a_name = "serve_latency_p99_high";
        a_severity = "warning";
        a_state = "firing";
        a_value = 0.125;
      };
    Journal.Access { x_at = 2.7; x_line = "{\"method\":\"plan\"}" };
    Journal.Dump_marker { d_at = 3.0 };
  ]

let test_journal_roundtrip () =
  (* payload codec is a fixpoint for every record shape *)
  List.iter
    (fun r ->
      match Journal.decode (Journal.encode r) with
      | Some r' -> Alcotest.(check bool) "codec fixpoint" true (r = r')
      | None -> Alcotest.fail "decode returned None on a valid payload")
    sample_records;
  with_temp_dir (fun dir ->
      (match Journal.create dir with
      | Error e -> Alcotest.fail e
      | Ok w ->
          List.iter (fun r -> ignore (Journal.append w r)) sample_records;
          Alcotest.(check int) "records_written"
            (List.length sample_records)
            (Journal.records_written w);
          Journal.close w);
      match Journal.open_ dir with
      | Error e -> Alcotest.fail e
      | Ok rd ->
          Alcotest.(check bool) "records survive the disk roundtrip" true
            (Journal.records rd = sample_records);
          let s = Journal.stats rd in
          Alcotest.(check int) "one segment" 1 s.Journal.r_segments;
          Alcotest.(check int) "no torn tail" 0 s.Journal.r_truncated)

let test_journal_rotation () =
  with_temp_dir (fun dir ->
      match Journal.create ~segment_bytes:4096 ~max_segments:2 dir with
      | Error e -> Alcotest.fail e
      | Ok w ->
          (* each access record is ~100 framed bytes: hundreds of
             appends must rotate and prune down to the newest two *)
          for i = 1 to 400 do
            ignore
              (Journal.append w
                 (Journal.Access
                    {
                      x_at = float_of_int i;
                      x_line = String.make 80 (Char.chr (65 + (i mod 26)));
                    }))
          done;
          Journal.close w;
          let segments =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".adj")
          in
          Alcotest.(check int) "pruned to max_segments" 2
            (List.length segments);
          (match Journal.open_ dir with
          | Error e -> Alcotest.fail e
          | Ok rd ->
              let recs = Journal.records rd in
              Alcotest.(check bool) "a bounded suffix survives" true
                (List.length recs > 0 && List.length recs < 400);
              (* the retained records are the newest, contiguous *)
              match (recs, List.rev recs) with
              | ( Journal.Access { x_at = first_at; _ } :: _,
                  Journal.Access { x_at = last_at; _ } :: _ ) ->
                  Alcotest.(check (float 0.0)) "suffix ends at the last append"
                    400.0 last_at;
                  Alcotest.(check int) "suffix is contiguous"
                    (List.length recs)
                    (int_of_float (last_at -. first_at) + 1)
              | _ -> Alcotest.fail "expected access records"))

let test_journal_torn_tail () =
  with_temp_dir (fun dir ->
      (match Journal.create dir with
      | Error e -> Alcotest.fail e
      | Ok w ->
          List.iter (fun r -> ignore (Journal.append w r)) sample_records;
          Journal.close w);
      let seg =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".adj")
        |> List.sort compare |> List.rev |> List.hd
        |> Filename.concat dir
      in
      (* crash mid-write: chop 3 bytes off the newest segment's tail *)
      let all = read_all seg in
      Out_channel.with_open_bin seg (fun oc ->
          Out_channel.output_string oc
            (String.sub all 0 (String.length all - 3)));
      (match Journal.open_ dir with
      | Error e -> Alcotest.fail e
      | Ok rd ->
          let expect_whole =
            List.filteri
              (fun i _ -> i < List.length sample_records - 1)
              sample_records
          in
          Alcotest.(check bool) "every whole record recovered" true
            (Journal.records rd = expect_whole);
          let s = Journal.stats rd in
          Alcotest.(check int) "torn tail counted" 1 s.Journal.r_truncated;
          Alcotest.(check bool) "lost bytes counted" true
            (s.Journal.r_bytes_lost > 0));
      (* a writer reopening the damaged journal truncates the tear and
         appends cleanly after the last whole record *)
      (match Journal.create dir with
      | Error e -> Alcotest.fail e
      | Ok w ->
          ignore (Journal.append w (Journal.Dump_marker { d_at = 9.0 }));
          Journal.close w);
      match Journal.open_ dir with
      | Error e -> Alcotest.fail e
      | Ok rd ->
          Alcotest.(check int) "tear healed, append continues"
            (List.length sample_records)
            (List.length (Journal.records rd));
          Alcotest.(check int) "no torn tail after resume" 0
            (Journal.stats rd).Journal.r_truncated)

(* ---------- OTLP encoding ---------- *)

let test_otlp_shape () =
  Alcotest.(check int) "trace id is 32 hex chars" 32
    (String.length (Obs.Otlp.trace_id_hex 7));
  Alcotest.(check int) "span id is 16 hex chars" 16
    (String.length (Obs.Otlp.span_id_hex ~trace:7 ~span:0));
  let store = Rt.create ~sample_rate:1.0 ~max_traces:4 () in
  (match Rt.begin_with_id store ~id:7 ~now:1.0 with
  | None -> Alcotest.fail "sample_rate 1 must admit"
  | Some h ->
      let p =
        Rt.add_span store h ~parent:(-1) ~kind:(Rt.Stage Rt.Frame_read)
          ~node:(-1) ~start:1.0 ~stop:1.1
      in
      ignore
        (Rt.add_span store h ~parent:p ~kind:(Rt.Stage Rt.Shard_plan) ~node:2
           ~start:1.1 ~stop:1.4);
      Rt.finish store h ~now:1.5);
  let reg = Obs.Registry.create () in
  Obs.Counter.inc ~by:3.0 (Obs.Registry.counter reg "adept_test_total");
  Obs.Gauge.set (Obs.Registry.gauge reg "adept_test_gauge") 0.5;
  let hist = Obs.Registry.histogram reg "adept_test_seconds" in
  Obs.Histogram.record_ex hist 0.25 ~trace_id:7;
  Obs.Histogram.record hist 0.01;
  let doc =
    Obs.Otlp.document
      ~resource:[ ("service.name", "adept-test") ]
      ~conn_of:(fun tr -> if tr = 7 then Some 3 else None)
      ~at:100.0
      ~exemplars:(Rt.exemplars store)
      (Obs.Registry.snapshot reg)
  in
  (match Json.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("OTLP document is not JSON: " ^ e));
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("document has " ^ needle) true
        (contains doc needle))
    [
      "\"resourceSpans\"";
      "\"resourceMetrics\"";
      Obs.Otlp.trace_id_hex 7;
      "\"adept.conn.id\"";
      "\"adept.node\"";
      "\"service.name\"";
      "\"adept_test_total\"";
      "\"adept_test_gauge\"";
      "\"adept_test_seconds\"";
      "\"explicitBounds\"";
      "\"exemplars\"";
      "\"isMonotonic\":true";
    ];
  (* a chain head has no parentSpanId member; the child does *)
  Alcotest.(check bool) "child span carries its parent" true
    (contains doc
       ("\"parentSpanId\":\"" ^ Obs.Otlp.span_id_hex ~trace:7 ~span:0 ^ "\""));
  let doc2 =
    Obs.Otlp.document
      ~resource:[ ("service.name", "adept-test") ]
      ~conn_of:(fun tr -> if tr = 7 then Some 3 else None)
      ~at:100.0
      ~exemplars:(Rt.exemplars store)
      (Obs.Registry.snapshot reg)
  in
  Alcotest.(check string) "rendering is deterministic" doc doc2

(* ---------- replay (unit bit-identity) ---------- *)

(* Drive a live trace store and a journal side by side — exactly what
   the server does — then replay the journal and demand the very bytes
   the live exporter produced, both at a mid-run dump marker and at the
   end (reservoir eviction included: 12 finishes into 4 slots). *)
let test_replay_bit_identical () =
  with_temp_dir (fun dir ->
      let w =
        match Journal.create dir with Ok w -> w | Error e -> Alcotest.fail e
      in
      let store = Rt.create ~sample_rate:1.0 ~max_traces:4 ~max_spans:64 () in
      ignore
        (Journal.append w
           (Journal.Meta
              {
                m_at = 0.0;
                m_sample_rate = 1.0;
                m_max_traces = 4;
                m_max_spans = 64;
                m_scrape_interval = 1.0;
                m_retention = 300.0;
                m_workers = 1;
                m_shards = 1;
              }));
      let run_request i =
        let id = 100 + i in
        let issued = float_of_int i in
        (* non-monotone durations so the slowest-N reservoir evicts *)
        let dur = 0.1 +. (float_of_int ((i * 7) mod 5) /. 10.0) in
        match Rt.begin_with_id store ~id ~now:issued with
        | None -> Alcotest.fail "must sample"
        | Some h ->
            ignore
              (Journal.append w
                 (Journal.Begin_request
                    { b_at = issued; b_trace = id; b_sampled = true }));
            let p =
              Rt.add_span store h ~parent:(-1) ~kind:(Rt.Stage Rt.Frame_read)
                ~node:(-1) ~start:issued ~stop:(issued +. 0.01)
            in
            ignore
              (Rt.add_span store h ~parent:p ~kind:(Rt.Stage Rt.Shard_plan)
                 ~node:(i mod 3) ~start:(issued +. 0.01)
                 ~stop:(issued +. dur));
            let spans_n = Rt.span_count h in
            ignore spans_n;
            let tr = Rt.finish_trace store h ~now:(issued +. dur) in
            ignore
              (Journal.append w
                 (Journal.Finish
                    {
                      f_at = issued +. dur;
                      f_trace = id;
                      f_issued = issued;
                      f_conn = 1;
                      f_spans = Option.map (fun t -> t.Rt.tr_spans) tr;
                      f_dropped_spans = Rt.dropped_spans store;
                    }))
      in
      for i = 1 to 6 do run_request i done;
      let live_at_dump = Obs.Export.chrome_trace store in
      ignore (Journal.append w (Journal.Dump_marker { d_at = 6.9 }));
      for i = 7 to 12 do run_request i done;
      let live_at_end = Obs.Export.chrome_trace store in
      Journal.close w;
      let rd =
        match Journal.open_ dir with Ok r -> r | Error e -> Alcotest.fail e
      in
      let records = Journal.records rd in
      let at_dump = Obs.Replay.run ~cut:(Obs.Replay.At_dump 1) records in
      Alcotest.(check string) "dump-cut chrome trace is byte-identical"
        live_at_dump at_dump.Obs.Replay.rp_chrome;
      let at_end = Obs.Replay.run records in
      Alcotest.(check string) "end-of-journal chrome trace is byte-identical"
        live_at_end at_end.Obs.Replay.rp_chrome;
      Alcotest.(check int) "replay saw every request" 12
        at_end.Obs.Replay.rp_seen;
      Alcotest.(check int) "reservoir eviction reproduced" 4
        at_end.Obs.Replay.rp_retained;
      Alcotest.(check bool) "summary renders" true
        (String.length
           (Obs.Replay.summary ~stats:(Journal.stats rd) at_end)
        > 0))

(* ---------- recorder over the live server ---------- *)

let test_recorder_byte_identical () =
  (* the serving invariant extends to the recorder: responses are
     byte-identical with the journal and OTLP push on or off *)
  let payloads =
    List.map Proto.encode_request
      [
        { Proto.id = 1; trace = Some 201; request = plan_syn8 };
        { Proto.id = 2; trace = Some 202; request = plan_syn8 };
        { Proto.id = 3; trace = None; request = plan_syn8 };
        {
          Proto.id = 4;
          trace = Some 204;
          request =
            Proto.Replan
              {
                r_spec = syn8;
                r_dgemm = 310;
                r_demand = None;
                r_strategy = "heuristic";
                r_failed = [ 1 ];
              };
        };
      ]
  in
  let plain = with_server (fun addr -> collect_raw_replies addr payloads) in
  let recorded =
    with_temp_dir (fun dir ->
        let otlp = Filename.concat dir "otlp.json" in
        with_server
          ~extra_env:
            [
              server_obs_var ^ "=1";
              server_journal_var ^ "=" ^ Filename.concat dir "journal";
              server_otlp_var ^ "=" ^ otlp;
            ]
          (fun addr -> collect_raw_replies addr payloads))
  in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "reply %d byte-identical with the recorder on" i)
        a b)
    (List.combine plain recorded)

let test_replay_matches_live_server () =
  with_temp_dir (fun dir ->
      let journal_dir = Filename.concat dir "journal" in
      let otlp = Filename.concat dir "otlp.json" in
      let live_chrome = ref "" and live_otlp = ref "" in
      with_server
        ~extra_env:
          [
            server_obs_var ^ "=2";
            server_journal_var ^ "=" ^ journal_dir;
            server_otlp_var ^ "=" ^ otlp;
          ]
        (fun addr ->
          let c =
            match Client.connect_retry ~trace_base:2_000 addr with
            | Ok c -> c
            | Error e -> Alcotest.fail e
          in
          ignore (Client.call c plan_syn8);
          ignore (Client.call c plan_syn8);
          (match Client.call c Proto.Trace_dump with
          | Ok (Proto.Trace_ok { chrome }) -> live_chrome := chrome
          | _ -> Alcotest.fail "expected Trace_ok");
          (match Client.call c Proto.Otlp_dump with
          | Ok (Proto.Otlp_ok { otlp }) -> live_otlp := otlp
          | _ -> Alcotest.fail "expected Otlp_ok");
          (* per-connection aggregation is live in stats *)
          (match Client.call c Proto.Stats with
          | Ok (Proto.Stats_ok { live = Some l; _ }) -> (
              match l.Proto.connections with
              | [ conn ] ->
                  Alcotest.(check bool) "requests aggregated" true
                    (conn.Proto.conn_requests >= 4);
                  Alcotest.(check bool) "spans aggregated" true
                    (conn.Proto.conn_spans > conn.Proto.conn_requests);
                  Alcotest.(check bool) "seconds aggregated" true
                    (conn.Proto.conn_seconds > 0.0)
              | l ->
                  Alcotest.fail
                    (Printf.sprintf "expected one connection, got %d"
                       (List.length l)))
          | _ -> Alcotest.fail "expected live stats");
          Client.close c);
      (* the server has drained: replay its journal *)
      let rd =
        match Journal.open_ journal_dir with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let records = Journal.records rd in
      Alcotest.(check int) "no torn tail after a clean drain" 0
        (Journal.stats rd).Journal.r_truncated;
      let at_dump = Obs.Replay.run ~cut:(Obs.Replay.At_dump 1) records in
      Alcotest.(check string)
        "replayed chrome trace is byte-identical to the live dump"
        !live_chrome at_dump.Obs.Replay.rp_chrome;
      (* the live OTLP dump's spans carry the same retained trace ids *)
      (match Json.of_string !live_otlp with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("live OTLP dump is not JSON: " ^ e));
      Alcotest.(check bool) "OTLP dump carries resource attributes" true
        (contains !live_otlp "\"adept-serve\"");
      (* the scrape-cadence OTLP file was written (teardown forces one) *)
      let pushed = read_all otlp in
      (match Json.of_string pushed with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("pushed OTLP file is not JSON: " ^ e));
      Alcotest.(check bool) "pushed document has spans and metrics" true
        (contains pushed "\"resourceSpans\""
        && contains pushed "\"resourceMetrics\"");
      (* access lines in the journal match the replay byte-verbatim
         (the full-journal replay carries every line) *)
      let full = Obs.Replay.run records in
      Alcotest.(check bool) "replayed access log has the plan lines" true
        (contains full.Obs.Replay.rp_access "\"method\":\"plan\""))

(* Regenerate the golden transcript instead of running the suite:
   SERVE_GOLDEN_OUT=/path/to/serve_session.jsonl ./test_serve.exe *)
let () =
  match Sys.getenv_opt "SERVE_GOLDEN_OUT" with
  | Some path ->
      let transcript, _ = run_session () in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc transcript);
      Printf.printf "wrote %s (%d bytes)\n" path (String.length transcript);
      exit 0
  | None -> ()

(* Likewise for the alert-timeline golden:
   SERVE_ALERTS_GOLDEN_OUT=/path/to/serve_alerts.jsonl ./test_serve.exe *)
let () =
  match Sys.getenv_opt "SERVE_ALERTS_GOLDEN_OUT" with
  | Some path ->
      let _, timeline = alert_timeline () in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc timeline);
      Printf.printf "wrote %s (%d bytes)\n" path (String.length timeline);
      exit 0
  | None -> ()

let () =
  Alcotest.run "adept-serve"
    [
      ( "json",
        [
          Alcotest.test_case "parse/print fixpoint" `Quick test_json_fixpoint;
          Alcotest.test_case "whole floats" `Quick test_json_whole_floats;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request codec fixpoint" `Quick test_request_fixpoint;
          Alcotest.test_case "reply codec fixpoint" `Quick test_reply_fixpoint;
          Alcotest.test_case "bad requests get typed errors" `Quick test_decode_bad_requests;
          Alcotest.test_case "defaults mirror the CLI" `Quick test_decode_defaults_match_cli;
          Alcotest.test_case "trace context compatibility" `Quick test_trace_context_compat;
          Alcotest.test_case "stats without live block are unchanged" `Quick
            test_stats_live_absent_when_none;
          Alcotest.test_case "envelope fixpoint (qcheck)" `Quick
            test_envelope_qcheck_fixpoint;
          Alcotest.test_case "spec digest" `Quick test_spec_digest;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "byte-by-byte feeding" `Quick test_wire_chunked;
          Alcotest.test_case "several frames per feed" `Quick test_wire_several_frames_one_feed;
          Alcotest.test_case "oversized prefix" `Quick test_wire_oversized;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
          Alcotest.test_case "nested await helps" `Quick test_pool_nested_helping;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_exception_propagates;
          Alcotest.test_case "on_resolve fires after resolution" `Quick
            test_pool_on_resolve_after_resolution;
          Alcotest.test_case "shutdown semantics" `Quick test_pool_shutdown_semantics;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss and exact keys" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "replace same key" `Quick test_cache_replace_same_key;
          Alcotest.test_case "platform invalidation" `Quick test_cache_invalidate_platform;
        ] );
      ( "shard",
        [
          Alcotest.test_case "bit-identical to sequential" `Slow test_shard_equivalence;
          Alcotest.test_case "diagnostics" `Quick test_shard_diag;
        ] );
      ( "server",
        [
          Alcotest.test_case "session semantics" `Quick test_session_semantics;
          Alcotest.test_case "golden transcript" `Quick test_golden_transcript;
          Alcotest.test_case "oversized frame closes the connection" `Quick
            test_oversized_frame_closes_connection;
          Alcotest.test_case "mid-request disconnect" `Quick test_mid_request_disconnect;
          Alcotest.test_case "use_cache:false bypasses the cache" `Quick
            test_client_call_no_cache;
          Alcotest.test_case "address parsing" `Quick test_address_parsing;
          Alcotest.test_case "SIGTERM drains an idle server" `Slow
            test_sigterm_drains_idle_server;
        ] );
      ( "observability",
        [
          Alcotest.test_case "clock sources and clamping" `Quick test_clock_sources;
          Alcotest.test_case "deterministic head sampling" `Quick
            test_trace_sampling_deterministic;
          Alcotest.test_case "worker stage profiling" `Quick test_prof_samples;
          Alcotest.test_case "cache eviction age and hit ratio" `Quick
            test_cache_eviction_age;
          Alcotest.test_case "domain busy accounting" `Quick test_pool_busy_seconds;
          Alcotest.test_case "runtime gc pause metrics" `Quick test_runtime_metrics;
          Alcotest.test_case "trace dump requires observability" `Quick
            test_trace_dump_requires_obs;
          Alcotest.test_case "replies byte-identical with tracing on" `Quick
            test_tracing_byte_identical;
          Alcotest.test_case "trace dump carries the stage spans" `Quick
            test_trace_dump_spans;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "prometheus snapshot" `Quick test_prom_snapshot;
          Alcotest.test_case "alert timeline (golden)" `Quick
            test_alert_timeline_golden;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "clock edges" `Quick test_clock_edges;
          Alcotest.test_case "journal codec and disk roundtrip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "segment rotation and pruning" `Quick
            test_journal_rotation;
          Alcotest.test_case "torn tail recovery" `Quick test_journal_torn_tail;
          Alcotest.test_case "otlp document shape" `Quick test_otlp_shape;
          Alcotest.test_case "replay is bit-identical (unit)" `Quick
            test_replay_bit_identical;
          Alcotest.test_case "replies byte-identical with the recorder on"
            `Quick test_recorder_byte_identical;
          Alcotest.test_case "replay matches the live server" `Quick
            test_replay_matches_live_server;
        ] );
    ]
