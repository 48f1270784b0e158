(* The four traffic mixes and the seeded request streams they send.

   Each mix stresses a different layer of the serving path, so a change
   to one layer has a workload that exercises it and one that bypasses
   it (README.md gives the predictions):

   - [hot]: one request repeated — after the first miss every reply is
     an inline cache hit, so latency is event loop, framing, JSON and
     [Cache.find] alone;
   - [cold]: a distinct heterogeneous platform per request — every
     request misses and the worker path (platform build, pooled
     planner, Eq. 16, rendering) does all the work;
   - [mixed]: plans over a Zipf-popular key set 16x the default LRU,
     with replans that invalidate cached plans and observes that hold
     the single worker — reads beside writes on one cache;
   - [large]: thousand-node platforms, where platform generation and
     the planner's scaling dominate.

   A stream is a pure function of the seed: the same seed yields the
   same requests in the same order (the tests pin a digest). *)

module P = Adept_serve.Protocol
module Rng = Adept_util.Rng

type t = {
  name : string;
  rate : float;  (** Open-loop arrivals per second. *)
  replay : int;  (** Leading requests the in-process replay covers. *)
  make : int -> unit -> P.request;  (** Seed -> request stream. *)
}

let synthetic ~heterogeneous ~nodes seed =
  P.Synthetic { nodes; power = 730.0; bandwidth = 1000.0; heterogeneous; seed }

let plan spec =
  P.Plan
    { spec; dgemm = 310; demand = None; strategy = "heuristic"; use_cache = true }

(* Platform seeds are [seed * stride + index], so every request of a run
   names a distinct platform and different seeds name different ones. *)
let stride = 1 lsl 24

(* ---------- Zipf sampler ---------- *)

type zipf = float array
(* Normalised cumulative weights; rank [r] (0-based) has weight
   [1 / (r + 1)^s]. *)

let zipf ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw (cdf : zipf) rng =
  let u = Rng.float rng 1.0 in
  (* first rank whose cumulative weight exceeds [u] *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

(* ---------- the mixes ---------- *)

let hot =
  {
    name = "hot";
    rate = 5000.0;
    replay = 200;
    make =
      (fun _seed ->
        let r = plan (synthetic ~heterogeneous:false ~nodes:50 42) in
        fun () -> r);
  }

let cold =
  {
    name = "cold";
    rate = 80.0;
    replay = 200;
    make =
      (fun seed ->
        let rng = Rng.create seed and i = ref 0 in
        fun () ->
          incr i;
          let nodes = Rng.int_in rng 50 200 in
          plan (synthetic ~heterogeneous:true ~nodes ((seed * stride) + !i)));
  }

(* 16x the server's default 128-entry LRU.  The exponent puts the hit
   ratio near two thirds, so the median request is a hit and the miss
   path sets p90 and p99; near one half the median would sit on the
   edge between the two modes and jump between them from run to run. *)
let mixed_keys = 2048
let mixed_zipf = 1.1
let mixed_sizes = [| 50; 100; 150; 200 |]

let mixed_key seed k =
  let nodes = mixed_sizes.(k mod Array.length mixed_sizes) in
  (nodes, synthetic ~heterogeneous:true ~nodes ((seed * stride) + k))

let mixed =
  {
    name = "mixed";
    rate = 120.0;
    replay = 200;
    make =
      (fun seed ->
        let rng = Rng.create seed and cdf = zipf ~n:mixed_keys ~s:mixed_zipf in
        fun () ->
          let u = Rng.float rng 1.0 in
          if u < 0.96 then plan (snd (mixed_key seed (zipf_draw cdf rng)))
          else if u < 0.98 then
            let nodes, spec = mixed_key seed (zipf_draw cdf rng) in
            P.Replan
              {
                r_spec = spec;
                r_dgemm = 310;
                r_demand = None;
                r_strategy = "heuristic";
                r_failed = [ Rng.int rng nodes ];
              }
          else
            P.Observe
              {
                o_spec = synthetic ~heterogeneous:false ~nodes:10 42;
                o_dgemm = 310;
                o_demand = None;
                o_strategy = "star";
                o_seed = Rng.int rng 1_000_000;
                o_clients = 10;
                o_warmup = 0.5;
                o_duration = 1.0;
              });
  }

let large_sizes = [| 1000; 2000; 4000 |]

let large =
  {
    name = "large";
    rate = 15.0;
    replay = 50;
    make =
      (fun seed ->
        let i = ref 0 in
        fun () ->
          let nodes = large_sizes.(!i mod Array.length large_sizes) in
          incr i;
          plan (synthetic ~heterogeneous:true ~nodes ((seed * stride) + !i)));
  }

let all = [ hot; cold; mixed; large ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The request with its id stripped: two requests with the same key
   must get byte-identical reply text (every method is a pure function
   of its parameters). *)
let key request = P.encode_request { P.id = 0; trace = None; request }
