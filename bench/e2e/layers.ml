(* Per-layer numbers.  Two sources, both outside the server's code:

   - the traced server's own spans, read back from its flight recorder
     ([Journal.open_] / [records]) and joined to the client's timings by
     trace id, which gives the latency budget;
   - an in-process replay of the workload's leading requests through
     each layer's public function, timed call by call with a monotonic
     nanosecond clock, with the minor/major words each call allocated. *)

module P = Adept_serve.Protocol
module Journal = Adept_obs.Journal
module Render = Adept_serve.Render
module Cache = Adept_serve.Cache
module Shard = Adept_serve.Shard
module Prof = Adept_serve.Prof
module Domain_pool = Adept_serve.Domain_pool

(* name -> samples, newest first *)
type samples = (string, float list) Hashtbl.t

let add (s : samples) name v =
  Hashtbl.replace s name (v :: Option.value ~default:[] (Hashtbl.find_opt s name))

let get (s : samples) name = Option.value ~default:[] (Hashtbl.find_opt s name)

(* trace id -> span chain of every finished sampled request *)
let journal_spans dir =
  Result.map
    (fun r ->
      let tbl = Hashtbl.create 4096 in
      List.iter
        (function
          | Journal.Finish { f_trace; f_spans = Some spans; _ } ->
              Hashtbl.replace tbl f_trace spans
          | _ -> ())
        (Journal.records r);
      tbl)
    (Journal.open_ dir)

(* ---------- in-process replay ---------- *)

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type words = { mutable minor : float; mutable major : float }

(* Time one call into sample [name ^ "_us"] and add the words it
   allocated on this domain to [w]. *)
let measure (s : samples) w name f =
  let g0 = Gc.quick_stat () in
  let t0 = clock () in
  let v = f () in
  let t1 = clock () in
  let g1 = Gc.quick_stat () in
  add s (name ^ "_us") ((t1 -. t0) *. 1e6);
  w.minor <- w.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  w.major <- w.major +. (g1.Gc.major_words -. g0.Gc.major_words);
  v

let ok = function Ok v -> v | Error e -> failwith e

(* Run [f] on the pool's worker and block on a pipe until it resolves,
   as the server's event loop does: the calling domain never helps, so
   the one worker does all the work, speculative probes included.  Then
   time what the task left queued (speculated probes nobody awaited),
   which in the server delays the next request. *)
let on_worker pool (rd, wr) f =
  let wait fut =
    ignore (Unix.read rd (Bytes.create 1) 0 1);
    Domain_pool.await fut
  in
  let notify () = ignore (Unix.write_substring wr "x" 0 1) in
  let v = wait (Domain_pool.submit ~on_resolve:notify pool f) in
  let t0 = clock () in
  wait (Domain_pool.submit ~on_resolve:notify pool ignore);
  (v, clock () -. t0)

(* The sharded planner as the server runs it (one worker, default
   shards), timed from inside the task: [shard.hint_us] is everything
   before the sequential replay starts (pool build, hint, speculative
   submissions), [shard.replay_us] the replay itself. *)
let shard_plan s pool pipe ~platform ~wapp ~demand =
  let prof = Prof.create ~now:clock in
  let (started, stopped, diag), leftover =
    on_worker pool pipe (fun () ->
        let t0 = clock () in
        let _, diag = Shard.plan ~prof ~pool Render.params ~platform ~wapp ~demand in
        (t0, clock (), diag))
  in
  add s "shard.plan_us" ((stopped -. started) *. 1e6);
  add s "shard.leftover_us" (leftover *. 1e6);
  List.iter
    (fun (ps : Prof.sample) ->
      if ps.Prof.ps_stage = "replay" then begin
        add s "shard.replay_us" ((ps.Prof.ps_stop -. ps.Prof.ps_start) *. 1e6);
        add s "shard.hint_us" ((ps.Prof.ps_start -. started) *. 1e6)
      end)
    (Prof.samples prof);
  add s "shard.speculated" (float_of_int diag.Shard.speculated);
  add s "shard.inline_probes" (float_of_int diag.Shard.inline_probes);
  diag

(* Every request through decode, platform build, cache probe, planner,
   render and the reply codecs — the served miss path, call by call —
   plus the sharded planner on the same input.  [runtime.*_words_per_req]
   sum the miss path's calls (the shard call repeats the planner's work
   on another domain and is left out). *)
let replay requests =
  let s : samples = Hashtbl.create 32 in
  let cache = Cache.create () in
  let pool = Domain_pool.create ~workers:1 () in
  let pipe = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Domain_pool.shutdown pool;
      Unix.close (fst pipe);
      Unix.close (snd pipe))
    (fun () ->
      List.iteri
        (fun i request ->
          let w = { minor = 0.0; major = 0.0 } in
          let measure name f = measure s w name f in
          let payload = P.encode_request { P.id = i + 1; trace = None; request } in
          add s "protocol.request_bytes" (float_of_int (String.length payload));
          ignore (measure "protocol.decode_request" (fun () -> P.decode_request payload));
          let reply response =
            let encoded =
              measure "protocol.encode_reply" (fun () ->
                  P.encode_reply { P.reply_id = i + 1; response })
            in
            add s "protocol.reply_bytes" (float_of_int (String.length encoded));
            ignore (measure "protocol.decode_reply" (fun () -> P.decode_reply encoded))
          in
          (match request with
          | P.Plan p ->
              let platform =
                ok (measure "generator.platform" (fun () -> Render.platform_of_spec p.P.spec))
              in
              let wapp = ok (Render.wapp_of_dgemm p.P.dgemm) in
              let demand = Render.demand_of p.P.demand in
              let digest = P.spec_digest p.P.spec and strategy = p.P.strategy in
              if
                measure "cache.lookup" (fun () ->
                    Cache.find cache ~digest ~strategy ~wapp ~demand:p.P.demand)
                = None
              then
                Cache.add cache ~digest ~strategy ~wapp ~demand:p.P.demand
                  { Cache.text = ""; rho = 0.0; nodes_used = 0 };
              let plan () =
                measure "planner.plan" (fun () ->
                    Adept.Planner.run Adept.Planner.Heuristic Render.params ~platform
                      ~wapp ~demand)
                |> Result.map_error Adept.Error.to_string |> ok
              in
              let shard () = shard_plan s pool pipe ~platform ~wapp ~demand in
              (* alternate which planner runs first, so neither always
                 finds the platform warm in the caches *)
              let plan, diag =
                if i mod 2 = 0 then
                  let plan = plan () in
                  (plan, shard ())
                else
                  let diag = shard () in
                  (plan (), diag)
              in
              let evaluations = plan.Adept.Planner.evaluations in
              add s "planner.evaluations" (float_of_int evaluations);
              if evaluations > 0 then
                add s "shard.memo_hit_ratio"
                  (float_of_int (evaluations - diag.Shard.inline_probes)
                  /. float_of_int evaluations);
              let text = measure "render.text" (fun () -> Render.plan_text ~platform ~wapp plan) in
              reply
                (P.Plan_ok
                   { text; rho = plan.Adept.Planner.predicted_rho;
                     nodes_used = plan.Adept.Planner.nodes_used; cached = false })
          | P.Replan r ->
              let text, rho_after = ok (measure "planner.replan" (fun () -> Render.replan r)) in
              reply (P.Replan_ok { text; rho_after })
          | P.Observe o ->
              let text, throughput = ok (measure "sim.observe" (fun () -> Render.observe o)) in
              reply (P.Observe_ok { text; throughput })
          | _ -> ());
          add s "runtime.minor_words_per_req" w.minor;
          add s "runtime.major_words_per_req" w.major)
        requests;
      s)
